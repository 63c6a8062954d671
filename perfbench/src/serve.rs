//! `serve-point` and `serve-burst`: multi-tenant query traffic through
//! `ServeFrontEnd` on a 2x2-tile fabric.
//!
//! `serve-point` is light traffic under split-hybrid routing (energy
//! objective): arrival gaps far exceed service time, so every query is
//! dispatched alone and per-batch fixed costs dominate. `serve-burst` is
//! sustained overload on the all-CIM policy with a deep queue, so
//! batches fill and per-query kernel and accounting work dominate.

use cim_arch::CimOp;
use cim_fabric::{
    DispatchPolicy, FabricExecutor, HostQueryExecutor, Query, QueryKind, ServeConfig,
    ServeFrontEnd, ServeReport, TrafficSpec, ADD_BITS,
};
use cim_logic::{BitSliceEngine, Comparator, ImplyAdder};
use cim_sim::SimError;
use cim_units::DispatchObjective;
use cim_verify::{certify_tiles, TileClaim};

use crate::trace::Tracer;
use crate::{fnv, median, timed_median, Audit, Bench, Layers, Threads};

/// Executed tile grid of both serving workloads.
const GRID: (u32, u32) = (2, 2);

/// Most single queries or batches per timed fabric/host probe loop.
const PROBE_CALLS: usize = 1_000;

/// Back-to-back loops per fabric/host probe; the median loop counts.
const LOOPS: usize = 3;

/// Rounds of the front-end self-time estimate; the median counts.
const SELF_ROUNDS: usize = 5;

/// Spans per short-call probe (evaluate, pool dispatch, kernel setup);
/// the median span counts.
const SMALL_CALLS: usize = 200;

/// Repetitions of the sub-microsecond probes inside one span.
const INNER: usize = 64;

pub struct ServeBench {
    traffic: TrafficSpec,
    all: ServeFrontEnd,
    one: ServeFrontEnd,
}

impl ServeBench {
    fn new(traffic: TrafficSpec, config: ServeConfig, policy: DispatchPolicy) -> Self {
        let front_end = |threads: Threads| ServeFrontEnd {
            fabric: FabricExecutor::paper(GRID.0, GRID.1, threads.batch()),
            config,
            policy: policy.clone(),
        };
        Self {
            traffic,
            all: front_end(Threads::All),
            one: front_end(Threads::One),
        }
    }

    /// Light traffic: a 1 µs mean arrival gap against 3-27 ns of
    /// service, so the queue never builds.
    pub fn point(seed: u64) -> Self {
        Self::new(
            TrafficSpec::sustained(1_000, seed),
            ServeConfig {
                mean_gap_ps: 1_000_000,
                ..ServeConfig::sustained()
            },
            DispatchPolicy::split_hybrid(DispatchObjective::Energy),
        )
    }

    /// Sustained overload: a ~500 ps mean arrival gap, batches of at
    /// most 64, and a queue and tenant quota as deep as the stream, so
    /// nothing is rejected.
    pub fn burst(seed: u64) -> Self {
        let queries = 25_000;
        Self::new(
            TrafficSpec::sustained(queries, seed),
            ServeConfig {
                queue_depth: queries as usize,
                tenant_quota: queries as usize,
                max_batch: 64,
                mean_gap_ps: 500,
            },
            DispatchPolicy::AlwaysCim,
        )
    }

    /// Times the serving family's layer calls from outside, on this
    /// workload's own traffic and batch shape.
    pub fn probe(&mut self, tracer: &mut Tracer, layers: &mut Layers) {
        let traffic = self.traffic;
        let secs = timed_median(tracer, "workloads", "workloads.traffic", 5, || {
            traffic.generate()
        });
        layers.set("workloads.traffic_s", secs, "s");
        let queries = traffic.generate();
        let report = match tracer.span("serve", "serve.serve", |_| self.all.serve(&traffic)) {
            Ok(report) => report,
            Err(e) => {
                println!("serve probe skipped: {e}");
                return;
            }
        };
        let per_batch = report.completed as f64 / report.batches.max(1) as f64;
        layers.set("serve.batches", report.batches as f64, "count");
        layers.set("serve.queries_per_batch", per_batch, "count");
        layers.set("serve.host_queries", report.host_queries as f64, "count");

        // The workload's own batch shape: single queries when batches
        // hold one query, otherwise full batches of the mean size.
        let full = if per_batch < 2.0 {
            self.all.config.max_batch
        } else {
            per_batch.round() as usize
        };
        let singles: Vec<&[Query]> = queries.chunks(1).take(PROBE_CALLS).collect();
        let batches: Vec<&[Query]> = queries.chunks(full).take(PROBE_CALLS).collect();
        let own: &[&[Query]] = if per_batch < 2.0 { &singles } else { &batches };

        // 1-thread probes first: a call right after all-cores work runs
        // measurably slower on this kind of host.
        let (all, one) = (&self.all.fabric, &self.one.fabric);
        for (name, span, fabric, shapes) in [
            (
                "fabric.execute_point_serial_us",
                "fabric.execute_point_serial",
                one,
                &singles,
            ),
            (
                "fabric.execute_burst_serial_us",
                "fabric.execute_burst_serial",
                one,
                &batches,
            ),
            (
                "fabric.execute_point_us",
                "fabric.execute_point",
                all,
                &singles,
            ),
            (
                "fabric.execute_burst_us",
                "fabric.execute_burst",
                all,
                &batches,
            ),
        ] {
            let us = per_call_us(tracer, "fabric", span, shapes, |batch| {
                fabric.execute(batch).is_ok()
            });
            layers.set(name, us, "us");
        }
        let host_us = per_call_us(tracer, "fabric", "fabric.host_execute", &singles, |batch| {
            HostQueryExecutor.execute(batch)
        });
        layers.set("fabric.host_execute_us", host_us, "us");
        let us = per_call_us(tracer, "fabric", "fabric.project", &batches, |batch| {
            all.project_batch(batch)
        });
        layers.set("fabric.project_us", us, "us");

        // Front-end time outside the machines (admission, batching,
        // accounting), at one thread where an execute call carries no
        // pool dispatch: a serial pass less the serial execute time of
        // its batches, replayed back to back right after it; the median
        // over `SELF_ROUNDS` rounds. Single-query batches are replayed
        // per kind and weighted by the queries of each kind the fabric
        // served (its count on the kind's component and phase, over the
        // kind's primitive invocations), since split routing does not
        // send every kind to the fabric alike.
        let front_end = &self.one;
        let by_kind: Vec<(u64, Vec<&[Query]>)> = [
            (QueryKind::Lookup, CimOp::Comparator),
            (QueryKind::Compare, CimOp::Comparator),
            (QueryKind::Add, CimOp::TcAdder { bits: ADD_BITS }),
        ]
        .into_iter()
        .map(|(kind, op)| {
            let served = report
                .fabric_counts
                .count(op.cost(&one.grid.tech).component, kind.phase())
                / kind.operations();
            let of_kind = singles
                .iter()
                .copied()
                .filter(|b| b[0].kind == kind)
                .collect();
            (served, of_kind)
        })
        .collect();
        let mut self_s = Vec::with_capacity(SELF_ROUNDS);
        for _ in 0..SELF_ROUNDS {
            let start = std::time::Instant::now();
            let _ = std::hint::black_box(
                tracer.span("serve", "serve.serve_serial", |_| front_end.serve(&traffic)),
            );
            let pass_s = start.elapsed().as_secs_f64();
            let execute_s = if per_batch < 2.0 {
                let mut secs = report.host_queries as f64 * host_us * 1e-6;
                for (served, of_kind) in &by_kind {
                    if *served > 0 && !of_kind.is_empty() {
                        let start = std::time::Instant::now();
                        for batch in of_kind {
                            std::hint::black_box(one.execute(batch).is_ok());
                        }
                        secs +=
                            start.elapsed().as_secs_f64() / of_kind.len() as f64 * *served as f64;
                    }
                }
                secs
            } else {
                let start = std::time::Instant::now();
                for batch in &batches {
                    std::hint::black_box(one.execute(batch).is_ok());
                }
                start.elapsed().as_secs_f64() / batches.len() as f64 * report.batches as f64
            };
            self_s.push(pass_s - execute_s);
        }
        layers.set("serve.self_s", median(&self_s), "s");

        // Tile runs that received a query, over all tile runs, for the
        // workload's own batch shape.
        let grid = &all.grid;
        let (busy, runs) = own.iter().fold((0u64, 0u64), |(busy, runs), batch| {
            let mut hit = vec![false; grid.tiles() as usize];
            for q in *batch {
                hit[grid.home_tile(q.home_key()) as usize] = true;
            }
            (
                busy + hit.iter().filter(|&&h| h).count() as u64,
                runs + grid.tiles(),
            )
        });
        layers.set("fabric.busy_tile_ratio", busy as f64 / runs as f64, "ratio");

        let (counts, _) = all.project_batch(own[0]);
        let prices = all.prices();
        let secs = timed_median(tracer, "units", "units.evaluate", SMALL_CALLS, || {
            for _ in 0..INNER {
                std::hint::black_box(prices.evaluate(&counts));
            }
        });
        layers.set("units.evaluate_us", secs / INNER as f64 * 1e6, "us");

        let tiles = grid.tiles() as usize;
        let secs = timed_median(tracer, "pool", "pool.dispatch", SMALL_CALLS, || {
            cim_pool::run_collect(0, tiles, |i| i)
        });
        layers.set("pool.dispatch_us", secs * 1e6, "us");
        let secs = timed_median(tracer, "pool", "pool.dispatch_serial", SMALL_CALLS, || {
            cim_pool::run_collect(1, tiles, |i| i)
        });
        layers.set("pool.dispatch_serial_us", secs * 1e6, "us");

        let secs = timed_median(tracer, "logic", "logic.setup", SMALL_CALLS, || {
            (
                Comparator::new(),
                ImplyAdder::new(ADD_BITS),
                BitSliceEngine::<u64>::wide(),
            )
        });
        layers.set("logic.setup_us", secs * 1e6, "us");
    }
}

/// Microseconds per call of `call` over `batches`, run back to back as
/// inside a serving pass: the median of `LOOPS` loops, each one span.
fn per_call_us<R>(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    batches: &[&[Query]],
    mut call: impl FnMut(&[Query]) -> R,
) -> f64 {
    let secs = timed_median(tracer, layer, name, LOOPS, || {
        for batch in batches {
            std::hint::black_box(call(batch));
        }
    });
    secs / batches.len() as f64 * 1e6
}

impl Bench for ServeBench {
    type Output = Result<ServeReport, SimError>;

    fn pass(&mut self, threads: Threads, tracer: &mut Tracer) -> Self::Output {
        let front_end = match threads {
            Threads::All => &self.all,
            Threads::One => &self.one,
        };
        tracer.span("serve", "serve.serve", |_| front_end.serve(&self.traffic))
    }

    fn digest(&self, out: &Self::Output) -> String {
        let r = match out {
            Ok(r) => r,
            Err(e) => return format!("error: {e}"),
        };
        let tenants = r.tenants.iter().fold(0u64, |h, t| {
            h.rotate_left(9)
                ^ t.completed
                ^ t.ledger.total_energy().get().to_bits()
                ^ t.ledger.total_time().get().to_bits().rotate_left(17)
        });
        format!(
            "completed={} cim={} host={} batches={} peak_queue={} checksum={:x} \
             makespan={:x} p50={:x} p99={:x} histogram={:x} fabric_e={:x} fabric_t={:x} \
             host_e={:x} host_t={:x} tenants={tenants:x}",
            r.completed,
            r.cim_queries,
            r.host_queries,
            r.batches,
            r.peak_queue,
            r.checksum,
            r.makespan.get().to_bits(),
            r.p50().get().to_bits(),
            r.p99().get().to_bits(),
            fnv(&r
                .histogram
                .buckets
                .iter()
                .flat_map(|b| b.to_le_bytes())
                .collect::<Vec<_>>()),
            r.fabric_ledger.total_energy().get().to_bits(),
            r.fabric_ledger.total_time().get().to_bits(),
            r.host_ledger.total_energy().get().to_bits(),
            r.host_ledger.total_time().get().to_bits(),
        )
    }

    fn audit(&mut self, out: &Self::Output) -> Audit {
        let submitted = self.traffic.queries;
        let mut audit = Audit {
            attempted: submitted,
            ..Audit::default()
        };
        let r = match out {
            Ok(r) => r,
            Err(e) => {
                audit.problems.push(format!("serve failed: {e}"));
                audit.failed = submitted;
                return audit;
            }
        };
        audit.work = r.completed;
        audit.failed = submitted.saturating_sub(r.completed);
        let reference = self.traffic.reference_checksum();
        audit.require(r.checksum == reference, || {
            format!(
                "serve checksum {:#018x} differs from the reference {reference:#018x}",
                r.checksum
            )
        });
        audit.require(
            r.submitted == submitted && r.completed == r.submitted,
            || format!("{} of {} queries completed", r.completed, r.submitted),
        );
        audit.require(r.rejected_queue_full + r.rejected_quota == 0, || {
            format!(
                "{} queries rejected (queue) and {} (quota)",
                r.rejected_queue_full, r.rejected_quota
            )
        });
        audit.require(r.cim_queries + r.host_queries == r.completed, || {
            format!(
                "{} CIM + {} host queries != {} completed",
                r.cim_queries, r.host_queries, r.completed
            )
        });
        audit.require(r.conserves(), || "serve report does not conserve".into());
        let claims: Vec<TileClaim> = r
            .tiles
            .iter()
            .map(|t| TileClaim {
                tile: t.tile,
                counts: t.counts.clone(),
                ledger: t.ledger.clone(),
            })
            .collect();
        let cert = certify_tiles(
            "serve",
            self.all.fabric.prices(),
            &claims,
            &r.fabric_counts,
            &r.fabric_ledger,
        );
        audit.require(cert.is_clean(), || {
            format!("tile certification failed:\n{cert}")
        });
        println!(
            "served {}/{} queries ({} CIM, {} host) in {} batches, checksum {:#018x} \
             (reference {reference:#018x}), modelled p50 {:.4e} s p99 {:.4e} s",
            r.completed,
            submitted,
            r.cim_queries,
            r.host_queries,
            r.batches,
            r.checksum,
            r.p50().get(),
            r.p99().get()
        );
        audit
    }
}
