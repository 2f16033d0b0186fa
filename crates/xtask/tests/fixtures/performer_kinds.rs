pub struct Plan {
    rank: usize,
}

impl Plan {
    pub fn global(&self) -> usize {
        self.rank
    }

    pub fn method_call_to_a_free_performers_name(&mut self) {
        if self.rank == 0 {
            let g = self.global();
            self.note(g);
        }
    }

    pub fn path_call_to_the_free_performer(&mut self) {
        if self.rank == 0 {
            global(self);
        }
    }

    pub fn path_call_to_a_method_performer(&mut self) {
        if self.rank == 0 {
            Plan::sync(self);
        }
    }

    fn sync(&mut self) {
        self.barrier();
    }
}

fn global(plan: &mut Plan) {
    plan.barrier();
}
