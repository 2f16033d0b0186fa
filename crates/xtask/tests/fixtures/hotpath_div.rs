pub fn bad_per_real_index(layout: &FieldLayout, data: &[f64], out: &mut [f64], site: usize) {
    for (n, o) in out.iter_mut().enumerate() {
        *o = data[layout.index(site, n)];
    }
}

pub fn bad_runtime_divisor(data: &mut [f64], nv: usize, stride: usize) {
    let mut i = 0;
    while i < data.len() {
        let block = i / nv;
        data[i] = (block % stride) as f64;
        i += 1;
    }
}

pub fn bad_pad_compound_float(layout: &FieldLayout, data: &mut [f32], slot: usize, s: f32) {
    for n in 0..12 {
        data[layout.pad_index(slot, n)] /= s;
        data[n] = data[n] / 2.0;
    }
}

pub fn good_const_divisors<const NV: usize>(data: &mut [usize]) {
    for (i, d) in data.iter_mut().enumerate() {
        *d = i / NV + i % 4 + i / HALF_SPINOR_REALS + i % P::STORAGE_BYTES + i / 0x10 + i % 8usize;
    }
}

pub fn good_hoisted_and_site_runs(layout: &FieldLayout, data: &[f64], out: &mut [f64], n: usize) {
    let block = n / layout.n_vec;
    let first = layout.index(block, 0);
    for (o, run) in out.iter_mut().zip(data.chunks_exact(SPINOR_REALS)) {
        *o = run[0] + first as f64;
    }
}
