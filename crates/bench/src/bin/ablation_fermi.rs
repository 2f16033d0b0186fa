//! Ablation: GT200's single copy engine vs Fermi's dual engines
//! (Section VI-D2, footnote 4: "The Fermi architecture improves upon this
//! model by allowing for bidirectional transfers over the PCI-E bus").
//!
//! Rerun the Fig. 5(b) strong-scaling shape with a Tesla C2050 in place of
//! the GTX 285: the overlapped strategy recovers because H2D transfers no
//! longer queue behind D2H on one engine.

use quda_gpusim::cards::card_table;
use quda_lattice::geometry::LatticeDims;
use quda_lattice::partition::DecompPlan;
use quda_multigpu::perf::{evaluate, PerfInput};
use quda_multigpu::rank_op::CommStrategy;
use quda_multigpu::PrecisionMode;

fn main() {
    let global = LatticeDims::spatial_cube(24, 128);
    let cards: Vec<_> = card_table()
        .into_iter()
        .filter(|c| c.name.contains("285") || c.name.contains("2050"))
        .collect();
    for card in &cards {
        println!(
            "{} ({} copy engine{}), V = 24^3x128, single-half:",
            card.name,
            card.copy_engines,
            if card.copy_engines > 1 { "s" } else { "" }
        );
        println!(
            "  {:>5} {:>14} {:>14} {:>12}",
            "GPUs", "overlap Gflops", "no-ovl Gflops", "ovl gain"
        );
        for gpus in [8usize, 16, 32] {
            let plan = DecompPlan::new(global, [1, 1, 1, gpus]);
            let mut ov = PerfInput::paper(plan, PrecisionMode::SingleHalf, CommStrategy::Overlap);
            ov.gpu = *card;
            let no = PerfInput { strategy: CommStrategy::NoOverlap, ..ov };
            let ov_r = evaluate(&ov);
            let no_r = evaluate(&no);
            println!(
                "  {:>5} {:>14.0} {:>14.0} {:>11.1}%",
                gpus,
                ov_r.sustained_gflops,
                no_r.sustained_gflops,
                100.0 * (ov_r.sustained_gflops / no_r.sustained_gflops - 1.0)
            );
        }
        println!();
    }
    println!("paper: 'we await future hardware and software improvements' — Fermi's");
    println!("second copy engine removes part of the overlap penalty seen in Fig. 5(b).");
}
