//! Answer verification: a seeded sample of a run's answers is executed
//! again, after the timed window, on an uncached resident `CloudWalker`
//! and compared bit for bit.

use crate::load::Kept;
use crate::stats::Rng;
use pasco_simrank::{QueryResponse, QueryService};

/// Whether two responses are identical down to every float's bits.
pub fn same_bits(a: &QueryResponse, b: &QueryResponse) -> bool {
    use QueryResponse as R;
    let eq = |x: &f64, y: &f64| x.to_bits() == y.to_bits();
    let rows = |x: &[f64], y: &[f64]| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| eq(p, q));
    match (a, b) {
        (R::Score(x), R::Score(y)) => eq(x, y),
        (R::Scores(x), R::Scores(y)) => rows(x, y),
        (R::Ranked(x), R::Ranked(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.0 == q.0 && eq(&p.1, &q.1))
        }
        (R::Matrix(x), R::Matrix(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| rows(p, q))
        }
        (R::Cohort(x), R::Cohort(y)) => x == y,
        (R::Batch(x), R::Batch(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_bits(p, q))
        }
        _ => false,
    }
}

/// Outcome of a verification pass.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Answers re-executed.
    pub checked: usize,
    /// Answers that differed from the reference (or failed on either side).
    pub mismatches: usize,
}

/// Re-executes `count` answers of `kept`, chosen by stream `seed`, on
/// `reference` and counts every answer that is not bitwise identical.
/// Failed requests are already counted by the caller, so only answered
/// ones are drawn.
pub fn check_sample(
    kept: &[Kept],
    reference: &dyn QueryService,
    count: usize,
    seed: u64,
) -> Verdict {
    let answered: Vec<&Kept> = kept.iter().filter(|s| s.result.is_ok()).collect();
    // A seeded draw without replacement (partial Fisher–Yates).
    let mut order: Vec<usize> = (0..answered.len()).collect();
    let mut rng = Rng::new(seed, 0x7e51f);
    let mut verdict = Verdict::default();
    for k in 0..count.min(order.len()) {
        let pick = k + rng.below(order.len() - k);
        order.swap(k, pick);
        let s = answered[order[k]];
        verdict.checked += 1;
        let ok = match (&s.result, reference.execute(s.req.clone())) {
            (Ok(got), Ok(want)) => same_bits(got, &want),
            _ => false,
        };
        if !ok {
            verdict.mismatches += 1;
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasco_graph::generators;
    use pasco_simrank::{CloudWalker, ExecMode, QueryRequest, QuerySession, SimRankConfig};
    use std::sync::Arc;

    fn kept_answer(svc: &dyn QueryService, req: QueryRequest) -> Kept {
        Kept { result: svc.execute(req.clone()), req }
    }

    #[test]
    fn one_flipped_score_fails_the_check() {
        let g = Arc::new(generators::barabasi_albert(200, 4, 3));
        let cw = Arc::new(CloudWalker::build(g, SimRankConfig::fast(), ExecMode::Local).unwrap());
        let session = QuerySession::new(Arc::clone(&cw), 64);
        let mut samples = vec![
            kept_answer(&session, QueryRequest::SinglePair { i: 3, j: 40 }),
            kept_answer(&session, QueryRequest::SingleSourceTopK { i: 7, k: 5 }),
            kept_answer(
                &session,
                QueryRequest::PairsMatrix { rows: vec![1], cols: vec![2, 9, 30] },
            ),
        ];
        // Served through the cache, re-executed uncached: identical.
        let clean = check_sample(&samples, cw.as_ref(), 30, 1);
        assert_eq!((clean.checked, clean.mismatches), (3, 0));

        // Move the single-pair score to the next float up (one ulp): the
        // check must now count exactly that answer as a mismatch.
        let Ok(QueryResponse::Score(s)) = &mut samples[0].result else { panic!("not a score") };
        *s = s.next_up();
        let flipped = check_sample(&samples, cw.as_ref(), 30, 1);
        assert_eq!((flipped.checked, flipped.mismatches), (3, 1));
    }

    #[test]
    fn ranked_and_matrix_answers_compare_bitwise() {
        let a = QueryResponse::Ranked(vec![(1, 0.5), (2, 0.25)]);
        assert!(same_bits(&a, &a.clone()));
        assert!(!same_bits(&a, &QueryResponse::Ranked(vec![(2, 0.5), (1, 0.25)])));
        let m = QueryResponse::Matrix(vec![vec![1.0, 0.0]]);
        assert!(!same_bits(&m, &QueryResponse::Matrix(vec![vec![1.0, -0.0]])));
        assert!(!same_bits(&m, &QueryResponse::Score(1.0)));
    }
}
