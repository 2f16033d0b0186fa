pub struct Exchange {
    lock: std::sync::Mutex<u32>,
    state: std::sync::RwLock<u32>,
}

impl Exchange {
    pub fn bad_alloc_loop(&self, n: usize) -> f64 {
        let mut acc = 0.0;
        for i in 0..n {
            let scratch = vec![0.0f64; 8];
            acc += scratch[i % 8];
        }
        acc
    }

    pub fn bad_clone_while(&self, names: &[String]) -> usize {
        let mut total = 0;
        let mut k = 0;
        while k < names.len() {
            total += names[k].clone().len();
            k += 1;
        }
        total
    }

    pub fn good_setup_alloc(&self, n: usize) -> Vec<f64> {
        let mut buf = Vec::with_capacity(n);
        for _ in 0..n {
            buf.push(0.0);
        }
        buf
    }

    pub fn bad_lock_loop(&self, n: usize) -> u32 {
        let mut acc = 0;
        for _ in 0..n {
            acc += *self.lock.lock().expect("poisoned");
        }
        acc
    }

    pub fn bad_read_loop(&self, n: usize) -> u32 {
        let mut acc = 0;
        for _ in 0..n {
            acc += *self.state.read().expect("poisoned");
        }
        acc
    }

    pub fn good_hoisted_lock(&self, n: usize) -> u32 {
        let guard = self.lock.lock().expect("poisoned");
        let mut acc = 0;
        for _ in 0..n {
            acc += *guard;
        }
        acc
    }

    pub fn allowed_alloc(&self, n: usize) -> usize {
        let mut total = 0;
        for _ in 0..n {
            // quda-lint: allow(hot-alloc)
            total += format!("{n}").len();
        }
        total
    }
}

pub fn encode_face_bad(values: &[f64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

pub fn decode_face_bad(bytes: &[u8]) -> Result<Vec<f64>, String> {
    Err(format!("{}", bytes.len()))
}

pub fn decode_face_into_good(bytes: &[u8], out: &mut Vec<f64>) {
    out.clear();
    out.extend(bytes.iter().map(|&b| b as f64));
}

pub fn pack_frame_good(values: &[f64]) -> Frame {
    Frame::from_reals(values)
}

pub fn helper_returns_vec(n: usize) -> Vec<u8> {
    Vec::with_capacity(n)
}

#[cfg(test)]
mod tests {
    pub fn test_alloc_loop(n: usize) -> usize {
        let mut total = 0;
        for _ in 0..n {
            total += vec![0u8; 4].len();
        }
        total
    }
}
