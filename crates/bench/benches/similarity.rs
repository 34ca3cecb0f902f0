//! Criterion: the string-similarity substrate (the inner loop of every
//! black-box model call).

use criterion::{criterion_group, criterion_main, Criterion};
use em_text::monge_elkan::monge_elkan_symmetric;
use em_text::{jaccard, jaro_winkler, levenshtein, TfIdfVectorizerBuilder};

const LEFT: &str = "sonix alpha digital slr camera with lens kit dslra200w";
const RIGHT: &str = "sonix digital camera lens kit dslra200";

fn bench_char_metrics(c: &mut Criterion) {
    c.bench_function("levenshtein", |b| b.iter(|| levenshtein(LEFT, RIGHT)));
    c.bench_function("jaro_winkler", |b| b.iter(|| jaro_winkler(LEFT, RIGHT)));
}

fn bench_token_metrics(c: &mut Criterion) {
    let lt: Vec<&str> = LEFT.split_whitespace().collect();
    let rt: Vec<&str> = RIGHT.split_whitespace().collect();
    c.bench_function("jaccard_tokens", |b| b.iter(|| jaccard(&lt, &rt)));
    c.bench_function("monge_elkan_jw", |b| {
        b.iter(|| monge_elkan_symmetric(&lt, &rt, jaro_winkler))
    });
}

fn bench_tfidf(c: &mut Criterion) {
    let mut builder = TfIdfVectorizerBuilder::new();
    for i in 0..2000 {
        let doc: Vec<String> = (0..10)
            .map(|j| format!("token{}", (i * 7 + j * 13) % 500))
            .collect();
        builder.add_document(&doc);
    }
    let v = builder.build();
    let lt: Vec<&str> = LEFT.split_whitespace().collect();
    let rt: Vec<&str> = RIGHT.split_whitespace().collect();
    c.bench_function("tfidf_cosine", |b| b.iter(|| v.cosine(&lt, &rt)));
}

criterion_group!(
    benches,
    bench_char_metrics,
    bench_token_metrics,
    bench_tfidf
);
criterion_main!(benches);
