//! Cross-path equivalence: the serial trainer, the async actor/learner
//! system, and the batch evaluation service must agree — same shared
//! policy, same evaluator semantics, same cache accounting — no matter
//! which path a design took to evaluation.

use prefix_graph::{structures, PrefixGraph};
use prefixrl_core::agent::{AgentConfig, TrainLoop};
use prefixrl_core::cache::{CacheConfig, CachedEvaluator};
use prefixrl_core::evalsvc::EvalService;
use prefixrl_core::evaluator::{Evaluator, ObjectivePoint};
use prefixrl_core::experiment::{AsyncRunner, Experiment, Weights};
use prefixrl_core::pareto::ParetoFront;
use prefixrl_core::task::{Adder, TaskEvaluator};
use std::sync::Arc;

/// The serial and async runners harvest legal designs with comparable
/// Pareto frontiers at N = 8 and N = 16: both fronts weakly improve on the
/// two episode start states (which every reset records) and explore design
/// pools of the same order of magnitude.
#[test]
fn serial_and_async_frontiers_comparable() {
    for n in [8u16, 16] {
        let mut cfg = AgentConfig::tiny(n, 0.5);
        cfg.total_steps = if n == 8 { 400 } else { 300 };
        let serial = TrainLoop::run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));
        let parallel = AsyncRunner::new(4).train(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));

        for result in [&serial, &parallel] {
            assert!(result.designs.len() > 10, "n={n}: too few designs");
            for (g, _) in &result.designs {
                g.verify_legal().unwrap();
            }
        }
        let serial_front = serial.front();
        let async_front = parallel.front();
        let eval = TaskEvaluator::analytical(Adder);
        for start in [
            eval.evaluate(&PrefixGraph::ripple(n)),
            eval.evaluate(&structures::sklansky(n)),
        ] {
            for (front, path) in [(&serial_front, "serial"), (&async_front, "async")] {
                let area = front
                    .area_at_delay(start.delay)
                    .unwrap_or_else(|| panic!("n={n} {path}: start delay unreachable"));
                assert!(
                    area <= start.area,
                    "n={n} {path}: front must weakly improve on start states"
                );
            }
        }
        let (a, b) = (serial.designs.len() as f64, parallel.designs.len() as f64);
        assert!(a / b < 4.0 && b / a < 4.0, "n={n}: serial {a} vs async {b}");
    }
}

/// The acceptance workload: 4 async actors over the sharded
/// cache on the N=8 analytical setting shows a nonzero cache hit rate
/// (start states recur on every episode reset).
#[test]
fn four_actor_training_hits_shared_cache() {
    let mut cfg = AgentConfig::tiny(8, 0.5);
    cfg.total_steps = 400;
    let cache = Arc::new(CachedEvaluator::with_config(
        TaskEvaluator::analytical(Adder),
        CacheConfig::default(),
    ));
    let result = AsyncRunner::new(4).train(&cfg, cache.clone());
    assert!(!result.designs.is_empty());
    assert!(cache.shards() >= 8, "default shard count must be ≥ 8");
    assert!(
        cache.hit_rate() > 0.0,
        "4-actor N=8 analytical training must reuse cached states \
         (hits {} / misses {})",
        cache.hits(),
        cache.misses()
    );
}

/// `evaluate_many` must equal per-graph `evaluate` through every stack
/// depth: bare evaluator, sharded cache, and EvalService with various
/// thread budgets.
#[test]
fn evaluate_many_equivalent_to_evaluate() {
    let graphs: Vec<PrefixGraph> = vec![
        PrefixGraph::ripple(16),
        structures::sklansky(16),
        structures::kogge_stone(16),
        structures::brent_kung(16),
        structures::han_carlson(16),
        structures::ladner_fischer(16),
        structures::sparse_kogge_stone(16, 4),
    ];
    let eval = TaskEvaluator::analytical(Adder);
    let reference: Vec<ObjectivePoint> = graphs.iter().map(|g| eval.evaluate(g)).collect();

    // Default trait implementation.
    assert_eq!(eval.evaluate_many(&graphs), reference);
    // Through the sharded cache.
    let cache = Arc::new(CachedEvaluator::new(TaskEvaluator::analytical(Adder)));
    assert_eq!(cache.evaluate_many(&graphs), reference);
    // Through the service at several widths, cold and warm.
    for threads in [1usize, 2, 5, 16] {
        let service = EvalService::new(cache.clone(), threads);
        assert_eq!(
            service.evaluate_many(&graphs),
            reference,
            "threads={threads}"
        );
    }
}

/// Sharded-cache hit/miss accounting stays exact under concurrent access:
/// every query is either a hit or a miss, and misses equal distinct states
/// once all threads have finished.
#[test]
fn sharded_cache_accounting_under_concurrency() {
    let cache = Arc::new(CachedEvaluator::with_config(
        TaskEvaluator::analytical(Adder),
        CacheConfig::with_shards(8),
    ));
    let graphs: Vec<PrefixGraph> = (0..6u16)
        .map(|i| {
            let mut g = PrefixGraph::ripple(12);
            g.apply(prefix_graph::Action::Add(prefix_graph::Node::new(9 - i, 2)))
                .unwrap();
            g
        })
        .collect();
    let threads = 8;
    let rounds = 5;
    std::thread::scope(|s| {
        for _ in 0..threads {
            let cache = Arc::clone(&cache);
            let graphs = graphs.clone();
            s.spawn(move || {
                for _ in 0..rounds {
                    for g in &graphs {
                        cache.evaluate(g);
                    }
                }
            });
        }
    });
    let total = (threads * rounds * graphs.len()) as u64;
    assert_eq!(cache.hits() + cache.misses(), total, "no query lost");
    assert_eq!(cache.unique_states(), graphs.len());
    // With in-flight dedup, each distinct state is evaluated exactly once.
    assert_eq!(cache.misses(), graphs.len() as u64);
    let stats = cache.shard_stats();
    assert_eq!(stats.len(), 8);
    assert_eq!(stats.iter().map(|s| s.hits + s.misses).sum::<u64>(), total);
}

/// The service front door composes with training end to end: a tiny run
/// through `EvalService` over the sharded cache produces the same design
/// pool as the cache alone (the service adds routing, not semantics).
#[test]
fn training_through_service_matches_cache_only() {
    let cfg = AgentConfig::tiny(8, 0.5);
    let direct = TrainLoop::run(
        &cfg,
        Arc::new(CachedEvaluator::new(TaskEvaluator::analytical(Adder))),
    );
    let cache = Arc::new(CachedEvaluator::new(TaskEvaluator::analytical(Adder)));
    let service = Arc::new(EvalService::new(cache.clone() as Arc<dyn Evaluator>, 2));
    let routed = TrainLoop::run(&cfg, service);
    assert_eq!(direct.designs.len(), routed.designs.len());
    let df: ParetoFront<PrefixGraph> = direct.front();
    let rf: ParetoFront<PrefixGraph> = routed.front();
    assert_eq!(df.points(), rf.points());
    assert!(cache.hits() > 0);
}

/// The session layer adds orchestration, not semantics: a single-weight
/// `Experiment` run produces exactly the designs and losses of a direct
/// `TrainLoop` run with the same configuration.
#[test]
fn experiment_single_run_matches_direct_loop() {
    let base = AgentConfig::tiny(8, 0.5);
    let exp = Experiment::builder()
        .n(8)
        .weights(Weights::single(0.5))
        .seed(0)
        .base_config(base.clone())
        .build();
    let via_experiment = exp.run_quiet().unwrap();
    // The builder applies the same weight/seed the base already has.
    let direct = TrainLoop::run(&base, Arc::new(TaskEvaluator::analytical(Adder)));
    let record = &via_experiment.records[0];
    assert_eq!(record.steps, direct.steps);
    assert_eq!(record.losses, direct.losses);
    assert_eq!(record.designs.len(), direct.designs.len());
    for ((ga, pa), (gb, pb)) in record.designs.iter().zip(&direct.designs) {
        assert_eq!(ga.canonical_key(), gb.canonical_key());
        assert_eq!(pa, pb);
    }
}
