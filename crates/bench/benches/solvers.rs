//! Criterion: the linear-model solvers behind the surrogate and the EM
//! model (ridge vs lasso ablation from DESIGN.md §5, plus logistic
//! regression training).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use em_linalg::lasso::lasso_fit;
use em_linalg::logistic::{LogisticConfig, LogisticModel};
use em_linalg::ridge::ridge_fit;
use em_linalg::Matrix;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

fn random_problem(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..d)
                .map(|_| if rng.gen_bool(0.5) { 1.0 } else { 0.0 })
                .collect()
        })
        .collect();
    let beta: Vec<f64> = (0..d).map(|_| rng.gen_range(-0.5..0.5)).collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| r.iter().zip(&beta).map(|(x, b)| x * b).sum::<f64>() + rng.gen_range(-0.05..0.05))
        .collect();
    let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
    (
        Matrix::from_rows(&rows).expect("rows share one width"),
        y,
        w,
    )
}

fn bench_surrogate_solvers(c: &mut Criterion) {
    // Shapes matching a real surrogate fit: 500 samples, 20-60 tokens.
    let mut group = c.benchmark_group("surrogate_solver");
    for d in [20usize, 40, 60] {
        let (x, y, w) = random_problem(500, d, 42);
        group.bench_with_input(BenchmarkId::new("ridge", d), &d, |b, _| {
            b.iter(|| ridge_fit(&x, &y, &w, 1.0).expect("ridge fit"));
        });
        group.bench_with_input(BenchmarkId::new("lasso", d), &d, |b, _| {
            b.iter(|| lasso_fit(&x, &y, &w, 0.01).expect("lasso fit"));
        });
    }
    group.finish();
}

fn bench_logistic_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("logistic_train");
    group.sample_size(10);
    for n in [200usize, 1000] {
        let (x, y, _) = random_problem(n, 5, 7);
        let labels: Vec<bool> = y.iter().map(|&v| v > 0.0).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                LogisticModel::fit(
                    &x,
                    &labels,
                    &LogisticConfig {
                        max_iter: 200,
                        ..Default::default()
                    },
                )
                .expect("logistic fit")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_surrogate_solvers, bench_logistic_training);
criterion_main!(benches);
