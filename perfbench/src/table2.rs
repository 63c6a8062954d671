//! `table2`: the Table 2 experiment at the executed scale of the
//! `table2` binary (200 kb reference at 5x coverage with 100-base reads,
//! and 10^6 32-bit additions), on both machines, projected to paper
//! scale and rendered.

use cim_core::paper_mode::{self, DecodedCell};
use cim_core::{AdditionsExperiment, ComparisonReport, Experiment, Table2};
use cim_logic::{BitSliceEngine, Comparator, ImplyAdder};
use cim_sim::{BatchPolicy, CimExecutor, ConventionalExecutor, ExecutionBackend};
use cim_workloads::{
    AdditionWorkload, DnaSpec, DnaWorkload, Genome, MemoryTrace, ProjectionKind, ReadSampler,
    SortedKmerIndex, Workload,
};

use crate::trace::Tracer;
use crate::{fnv, median, timed_median, Audit, Bench, Layers, Threads};

/// The executed DNA scale of the `table2` binary.
const SPEC: DnaSpec = DnaSpec {
    ref_len: 200_000,
    coverage: 5,
    read_len: 100,
};

/// Seed length of the executors' sorted k-mer index.
const SEED_LEN: usize = 16;

/// Largest relative deviation of a decoded paper-mode cell from the
/// published Table 2.
const DECODED_TOLERANCE: f64 = 0.05;

/// Probe repetitions per table2-family layer call.
const PROBE_REPS: usize = 5;

pub struct Table2Bench {
    dna: DnaWorkload,
    adds: AdditionWorkload,
}

pub struct Table2Output {
    decoded: Vec<DecodedCell>,
    table: Result<Table2, String>,
    rendered: (String, String),
}

impl Table2Bench {
    pub fn new(seed: u64) -> Self {
        Self {
            dna: DnaWorkload { spec: SPEC, seed },
            adds: AdditionWorkload::paper(seed),
        }
    }

    /// The executors' read sampler for this workload: 1% substitutions,
    /// seeded apart from the genome.
    fn sampler(&self) -> ReadSampler {
        ReadSampler {
            read_len: SPEC.read_len as usize,
            coverage: SPEC.coverage as u32,
            error_rate: 0.01,
            seed: self.dna.seed ^ 0x5eed,
        }
    }

    /// Times the table2 family's layer calls from outside and records
    /// them under their per-layer names.
    pub fn probe(&mut self, tracer: &mut Tracer, layers: &mut Layers) {
        let auto = BatchPolicy::auto();
        let (conv, cim) = (
            ConventionalExecutor::with_batch(auto),
            CimExecutor::with_batch(auto),
        );
        let seed = self.dna.seed;
        let mut genome = None;
        let mut index = None;
        let mut reads = Vec::new();
        for _ in 0..PROBE_REPS {
            genome = Some(tracer.span("workloads", "workloads.genome", |_| {
                Genome::generate(SPEC.ref_len as usize, seed)
            }));
            let g = genome.as_ref().expect("just generated");
            index = Some(tracer.span("workloads", "workloads.index", |_| {
                SortedKmerIndex::build(g, SEED_LEN)
            }));
            reads = tracer.span("workloads", "workloads.reads", |_| self.sampler().sample(g));
            let dna = self.dna;
            let adds = self.adds;
            let _ = std::hint::black_box(tracer.span("sim", "sim.conv_dna", |_| conv.run(&dna)));
            let _ = std::hint::black_box(tracer.span("sim", "sim.cim_dna", |_| cim.run(&dna)));
            let _ = std::hint::black_box(tracer.span("sim", "sim.conv_adds", |_| conv.run(&adds)));
            let _ = std::hint::black_box(tracer.span("sim", "sim.cim_adds", |_| cim.run(&adds)));
            let hit = match dna.projection() {
                ProjectionKind::PaperScale { assumed_hit_ratio } => assumed_hit_ratio,
                ProjectionKind::ExecutedScale => 0.0,
            };
            let _ = std::hint::black_box(tracer.span("sim", "sim.project", |_| {
                (
                    conv.project_attributed(&dna, hit),
                    cim.project_attributed(&dna, hit),
                    conv.project_attributed(&adds, hit),
                    cim.project_attributed(&adds, hit),
                )
            }));
        }
        for (name, span) in [
            ("workloads.genome_s", "workloads.genome"),
            ("workloads.index_s", "workloads.index"),
            ("workloads.reads_s", "workloads.reads"),
            ("sim.conv_dna_s", "sim.conv_dna"),
            ("sim.cim_dna_s", "sim.cim_dna"),
            ("sim.conv_adds_s", "sim.conv_adds"),
            ("sim.cim_adds_s", "sim.cim_adds"),
            ("sim.project_s", "sim.project"),
            ("core.report_s", "core.report"),
        ] {
            layers.set(name, median(&tracer.durations(span)), "s");
        }

        // The memory accesses the conventional DNA run replays through
        // its cache model: one trace per read, as the executor maps them.
        let genome = genome.expect("probed at least once");
        let index = index.expect("probed at least once");
        let accesses: usize = reads
            .iter()
            .map(|read| {
                let mut trace = MemoryTrace::new();
                index.map_read(&genome, read, &mut trace);
                trace.len()
            })
            .sum();
        layers.set("sim.trace_accesses", accesses as f64, "count");
        tracer.counter("sim.trace_accesses", accesses as f64);

        // Kernels on the workload's own operands: every read against its
        // true window, 64 symbol pairs per sliced comparison, and the
        // addition operands, 64 pairs per sliced add.
        let mut lanes = Vec::new();
        for read in &reads {
            let window =
                &genome.codes()[read.true_position..read.true_position + read.symbols.len()];
            for (a, b) in read.symbols.chunks(64).zip(window.chunks(64)) {
                let mut words = [0u64; 4];
                for (lane, (&s, &r)) in a.iter().zip(b).enumerate() {
                    words[0] |= u64::from(s & 1) << lane;
                    words[1] |= u64::from(s >> 1 & 1) << lane;
                    words[2] |= u64::from(r & 1) << lane;
                    words[3] |= u64::from(r >> 1 & 1) << lane;
                }
                lanes.push((words, a.len()));
            }
        }
        let symbols: usize = lanes.iter().map(|l| l.1).sum();
        let comparator = Comparator::new();
        let mut engine = BitSliceEngine::new();
        let secs = timed_median(tracer, "logic", "logic.compare", PROBE_REPS, || {
            lanes.iter().fold(0u64, |acc, ([a0, a1, b0, b1], _)| {
                acc ^ comparator.matches_sliced(&mut engine, *a0, *a1, *b0, *b1)
            })
        });
        layers.set("logic.compare_per_s", symbols as f64 / secs, "1/s");

        let pairs: Vec<(u64, u64)> = self.adds.operands().collect();
        let adder = ImplyAdder::new(self.adds.bits);
        let mut sums = [0u64; 64];
        let secs = timed_median(tracer, "logic", "logic.add", PROBE_REPS, || {
            let mut acc = 0u64;
            for chunk in pairs.chunks(64) {
                adder.add_sliced(&mut engine, chunk, &mut sums[..chunk.len()]);
                acc = acc.wrapping_add(sums[0]);
            }
            acc
        });
        layers.set("logic.add_per_s", pairs.len() as f64 / secs, "1/s");
    }
}

impl Bench for Table2Bench {
    type Output = Table2Output;

    /// What a one-shot `table2` user runs: the decoded paper cells, both
    /// experiments through `Experiment::run`, and the rendered table.
    fn pass(&mut self, threads: Threads, tracer: &mut Tracer) -> Table2Output {
        let batch = threads.batch();
        let decoded = tracer.span("core", "core.decoded_cells", |_| {
            paper_mode::decoded_cells()
        });
        let dna = tracer.span("core", "core.experiment_dna", |_| {
            Experiment::new(self.dna).with_batch(batch).run()
        });
        let math = tracer.span("core", "core.experiment_adds", |_| {
            AdditionsExperiment::new(self.adds).with_batch(batch).run()
        });
        let table = match (dna, math) {
            (Ok(dna), Ok(math)) => Ok(Table2 { dna, math }),
            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
        };
        let rendered = tracer.span("core", "core.report", |_| match &table {
            Ok(table) => (table.to_markdown(), table.to_csv()),
            Err(_) => (String::new(), String::new()),
        });
        Table2Output {
            decoded,
            table,
            rendered,
        }
    }

    fn digest(&self, out: &Table2Output) -> String {
        let table = match &out.table {
            Ok(table) => table,
            Err(e) => return format!("error: {e}"),
        };
        let report = |r: &ComparisonReport| {
            let runs = [
                (r.conventional(), r.conventional_ledger()),
                (r.cim(), r.cim_ledger()),
            ];
            let mut s = String::new();
            for (run, ledger) in runs {
                s.push_str(&format!(
                    "ops={} t={:x} e={:x} a={:x} lt={:x} le={:x} ",
                    run.operations,
                    run.total_time.get().to_bits(),
                    run.total_energy.get().to_bits(),
                    run.area.get().to_bits(),
                    ledger.total_time().get().to_bits(),
                    ledger.total_energy().get().to_bits(),
                ));
            }
            s.push_str(&format!("notes={:x}", fnv(r.notes().join("|").as_bytes())));
            s
        };
        let decoded = out
            .decoded
            .iter()
            .fold(0u64, |h, c| h.rotate_left(7) ^ c.reconstructed.to_bits());
        format!(
            "dna[{}] math[{}] decoded={decoded:x} markdown={:x} csv={:x}",
            report(&table.dna),
            report(&table.math),
            fnv(out.rendered.0.as_bytes()),
            fnv(out.rendered.1.as_bytes()),
        )
    }

    /// Checks the pass's own reports against ground truth computed here:
    /// the mapped-read count and the addition checksums the executors
    /// leave in each report's notes, ledger conservation, the paper's
    /// claim, and the decoded cells.
    fn audit(&mut self, out: &Table2Output) -> Audit {
        let reads = SPEC.short_reads();
        let n_ops = self.adds.n_ops;
        let mut audit = Audit {
            attempted: 2 * reads + 2 * n_ops,
            ..Audit::default()
        };

        // Work: the executed primitive operations of both machines. The
        // DNA report is projected to paper scale, so the executed DNA
        // comparisons are counted by running both executors once here.
        let auto = BatchPolicy::auto();
        for (machine, run) in [
            (
                "conventional",
                ConventionalExecutor::with_batch(auto).run(&self.dna),
            ),
            ("CIM", CimExecutor::with_batch(auto).run(&self.dna)),
        ] {
            match run {
                Ok(run) => audit.work += run.digest.operations,
                Err(e) => audit
                    .problems
                    .push(format!("{machine} DNA count run failed: {e}")),
            }
        }
        audit.work += 2 * n_ops;

        // Ground truth: the sampler's error-free reads, and the sum of
        // every operand pair in plain integer arithmetic.
        let genome = Genome::generate(SPEC.ref_len as usize, self.dna.seed);
        let sampled = self.sampler().sample(&genome);
        let clean = sampled
            .iter()
            .filter(|r| r.error_positions.is_empty())
            .count() as u64;
        let checksum = self
            .adds
            .operands()
            .fold(0u64, |acc, (a, b)| acc.wrapping_add(a + b));

        let table = match &out.table {
            Ok(table) => table,
            Err(e) => {
                audit.problems.push(format!("experiment failed: {e}"));
                audit.failed = audit.attempted;
                return audit;
            }
        };

        // The conventional DNA run's note: "scaled run: M/T reads mapped".
        let mapping = table.dna.notes().first().and_then(|note| {
            let mapped = field(note, "scaled run: ")?.parse::<u64>().ok()?;
            let total = field(note, "/")?.parse::<u64>().ok()?;
            Some((mapped, total))
        });
        match mapping {
            Some((mapped, total)) => {
                println!("conventional DNA: {mapped}/{total} reads mapped, {clean} sampled without error");
                audit.require(total == sampled.len() as u64, || {
                    format!(
                        "the pass mapped {total} reads, the sampler made {}",
                        sampled.len()
                    )
                });
                audit.require(mapped >= clean, || {
                    format!(
                        "the pass mapped {mapped} reads, fewer than the {clean} error-free ones"
                    )
                });
                audit.failed += clean.saturating_sub(mapped);
            }
            None => {
                audit
                    .problems
                    .push(format!("no mapping note in {:?}", table.dna.notes()));
                audit.failed += reads;
            }
        }

        // Each addition run's note: "checksum 0x... over N ... additions".
        for (machine, note) in ["conventional", "CIM"].into_iter().zip(table.math.notes()) {
            let reported = field(note, "checksum ")
                .and_then(|hex| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok());
            let count = field(note, "over ").and_then(|n| n.parse::<u64>().ok());
            println!(
                "{machine} additions: checksum {:?} over {count:?}, computed apart {checksum:#018x}",
                reported.map(|c| format!("{c:#018x}"))
            );
            let holds = reported == Some(checksum) && count == Some(n_ops);
            audit.require(holds, || {
                format!(
                    "{machine} additions: `{note}` does not match {checksum:#018x} over {n_ops}"
                )
            });
            audit.failed += if holds { 0 } else { n_ops };
        }
        audit.require(table.math.notes().len() == 2, || {
            format!("expected two addition notes, got {:?}", table.math.notes())
        });

        for r in [&table.dna, &table.math] {
            audit.require(
                r.conventional().conserves(r.conventional_ledger())
                    && r.cim().conserves(r.cim_ledger()),
                || format!("{} report does not conserve its ledgers", r.workload()),
            );
            let (edp, ops_per_joule, _) = r.improvements();
            audit.require(edp > 1.0 && ops_per_joule > 1.0, || {
                format!(
                    "{}: CIM does not beat conventional (EDP gain {edp}, ops/J gain \
                     {ops_per_joule})",
                    r.workload()
                )
            });
        }
        for cell in &out.decoded {
            audit.require(cell.deviation() <= DECODED_TOLERANCE, || {
                format!(
                    "decoded cell {} deviates {:.2}% from the published value",
                    cell.cell,
                    cell.deviation() * 100.0
                )
            });
        }
        audit
    }
}

/// The text after `before` in `note`, up to the next space or `/`.
fn field<'a>(note: &'a str, before: &str) -> Option<&'a str> {
    let rest = &note[note.find(before)? + before.len()..];
    rest.split([' ', '/']).next()
}
