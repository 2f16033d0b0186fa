pub fn bad_axpy(a: f64, x: &[f64], y: &mut [f64], n: usize) {
    for i in 0..n {
        y[i] += a * x[i];
    }
}

pub fn bad_inclusive(x: &[f64], n: usize) -> f64 {
    let mut acc = 0.0;
    for i in 0..=n {
        acc += x[i];
    }
    acc
}

pub fn bad_getset(src: &Field, dst: &mut Field, sites: usize) {
    for cb in 0..sites {
        let v = src.get(cb);
        dst.set(cb, &v);
    }
}

pub fn good_unrolled(m: &mut [[f64; 4]; 4]) {
    for d in 0..4 {
        m[d][d] = 1.0;
    }
}

pub fn good_blocks(x: &[f64], y: &mut [f64]) {
    for (xs, ys) in x.chunks_exact(8).zip(y.chunks_exact_mut(8)) {
        for (a, b) in xs.iter().zip(ys.iter_mut()) {
            *b += *a;
        }
    }
}

pub fn good_counter_not_index(x: &[f64], n: usize) -> f64 {
    let mut acc = 0.0;
    for _i in 0..n {
        acc += x.len() as f64;
    }
    acc
}

pub fn bad_array_signature(x: &[f64], n: usize) -> [f64; 2] {
    let mut out = [0.0; 2];
    for i in 0..n {
        out[0] += x[i];
    }
    out
}
