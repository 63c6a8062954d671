//! `electrical`: the nodal crossbar solver. A stream of reads with
//! interleaved cell-flipping writes runs on 1S1R 64x64 arrays under V/3
//! bias, then `ElectricalPlane::validate` re-reads one sentinel array
//! per tile of a 2x2 grid through `solve_batch`.
//!
//! V/3 and not V/2: under V/2 at 64x64 the line drop leaves some 1S1R
//! writes short of the switching threshold, so they fail to verify —
//! the modelled physics, not a program fault.

use cim_arch::TileGrid;
use cim_crossbar::{ArrayStats, BiasScheme, CellOps, Crossbar, SelectorCell};
use cim_device::DeviceParams;
use cim_fabric::{ElectricalPlane, TileMargin, MARGIN_FLOOR};

use crate::trace::Tracer;
use crate::{median, timed_median, Audit, Bench, Layers, Threads};

/// Array side (rows = columns).
const SIDE: usize = 64;

/// Arrays in the access stream, one per tile of the plane's grid.
const ARRAYS: usize = 4;

/// Written-then-read cells per array and pass.
const SITES: usize = 1;

/// Reads of each site after its write; all but the first reuse the
/// warm solution.
const READS: usize = 15;

/// Bias scheme of every stream access.
const SCHEME: BiasScheme = BiasScheme::ThirdV;

/// Warm-versus-cold agreement bound on the sense current, in amperes:
/// the solver's 1e-9 V node tolerance through the LRS conductance.
const WARM_COLD_TOLERANCE: f64 = 1e-9;

/// Repetitions of the plane and cold-solve probes.
const PROBE_REPS: usize = 3;

/// `splitmix64`: the benchmark's own generator for array fills and
/// access sites.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub struct ElectricalBench {
    /// Freshly filled arrays; every pass starts from clones of these.
    arrays: Vec<Crossbar<SelectorCell>>,
    /// Access sites of each array.
    sites: Vec<Vec<(usize, usize)>>,
    grid: TileGrid,
}

/// What one pass observed.
pub struct ElectricalOutput {
    writes: u64,
    unverified: u64,
    reads: u64,
    bad_reads: u64,
    /// Sense-current bits of every read, folded.
    currents: u64,
    stats: ArrayStats,
    margins: Result<Vec<TileMargin>, String>,
    /// Warm-minus-cold sense-current differences of the sampled reads
    /// (audit passes only).
    warm_cold: Vec<f64>,
}

impl ElectricalBench {
    pub fn new(seed: u64) -> Self {
        let mut state = seed;
        let params = DeviceParams::table1_cim();
        let arrays = (0..ARRAYS)
            .map(|_| {
                let mut array = Crossbar::homogeneous(SIDE, SIDE, || {
                    SelectorCell::new(params.clone(), 10.0, params.v_set * 0.5)
                });
                array.fill(|_, _| splitmix(&mut state) & 1 == 1);
                array
            })
            .collect();
        let sites = (0..ARRAYS)
            .map(|_| {
                (0..SITES)
                    .map(|_| {
                        let cell = splitmix(&mut state) as usize % (SIDE * SIDE);
                        (cell / SIDE, cell % SIDE)
                    })
                    .collect()
            })
            .collect();
        Self {
            arrays,
            sites,
            grid: TileGrid::paper_dna(2, 2),
        }
    }

    /// One pass; with `audit`, the first and last read of every site are
    /// also solved cold for comparison (state is not touched).
    fn run(&self, threads: Threads, tracer: &mut Tracer, audit: bool) -> ElectricalOutput {
        let mut out = ElectricalOutput {
            writes: 0,
            unverified: 0,
            reads: 0,
            bad_reads: 0,
            currents: 0,
            stats: ArrayStats::default(),
            margins: Ok(Vec::new()),
            warm_cold: Vec::new(),
        };
        for (template, sites) in self.arrays.iter().zip(&self.sites) {
            let mut array = template.clone();
            array.set_solver_threads(threads.knob());
            for &(r, c) in sites {
                let bit = !array.stored(r, c);
                let write = tracer.span("crossbar", "crossbar.write", |_| {
                    array.write(r, c, bit, SCHEME)
                });
                out.writes += 1;
                out.unverified += u64::from(!write.verified);
                for k in 0..READS {
                    let read =
                        tracer.span("crossbar", "crossbar.read", |_| array.read(r, c, SCHEME));
                    out.reads += 1;
                    out.bad_reads +=
                        u64::from(read.bit != array.stored(r, c) || !read.solved.converged);
                    out.currents = out.currents.rotate_left(5) ^ read.sense_current.get().to_bits();
                    if audit && (k == 0 || k == READS - 1) {
                        let v = array.cell(r, c).read_amplitude();
                        let cold = array.solve_access_cold(r, c, v, SCHEME);
                        out.warm_cold
                            .push(read.solved.sense_current.get() - cold.sense_current.get());
                    }
                }
            }
            out.stats.merge(array.stats());
        }
        let mut plane = ElectricalPlane::paper(&self.grid, SIDE);
        out.margins = tracer.span("fabric", "fabric.plane_validate", |_| {
            plane.validate(threads.knob())
        });
        out
    }

    /// Times the solver family's layer calls from outside.
    pub fn probe(&mut self, tracer: &mut Tracer, layers: &mut Layers) {
        let out = self.run(Threads::All, tracer, false);
        let mean_us = |name| {
            let d = tracer.durations(name);
            d.iter().sum::<f64>() / d.len().max(1) as f64 * 1e6
        };
        layers.set("crossbar.read_us", mean_us("crossbar.read"), "us");
        layers.set("crossbar.write_us", mean_us("crossbar.write"), "us");
        layers.set(
            "crossbar.solver_sweeps",
            out.stats.solver_sweeps as f64,
            "count",
        );
        tracer.counter("crossbar.solver_sweeps", out.stats.solver_sweeps as f64);
        layers.set(
            "crossbar.sense_reuse_ratio",
            out.stats.sense_reuses as f64 / out.stats.reads.max(1) as f64,
            "ratio",
        );

        // The reference path on the same accesses: cold solves of every
        // site's read on the freshly filled arrays.
        for _ in 0..PROBE_REPS {
            for (array, sites) in self.arrays.iter().zip(&self.sites) {
                for &(r, c) in sites {
                    let v = array.cell(r, c).read_amplitude();
                    std::hint::black_box(tracer.span("crossbar", "crossbar.cold_solve", |_| {
                        array.solve_access_cold(r, c, v, SCHEME)
                    }));
                }
            }
        }
        layers.set(
            "crossbar.cold_solve_ms",
            median(&tracer.durations("crossbar.cold_solve")) * 1e3,
            "ms",
        );

        for (name, span, threads) in [
            (
                "fabric.plane_validate_ms",
                "fabric.plane_validate_probe",
                Threads::All,
            ),
            (
                "fabric.plane_validate_serial_ms",
                "fabric.plane_validate_serial",
                Threads::One,
            ),
        ] {
            let mut planes: Vec<ElectricalPlane> = (0..PROBE_REPS)
                .map(|_| ElectricalPlane::paper(&self.grid, SIDE))
                .collect();
            let secs = timed_median(tracer, "fabric", span, PROBE_REPS, || {
                planes.pop().map(|mut plane| plane.validate(threads.knob()))
            });
            layers.set(name, secs * 1e3, "ms");
        }
    }
}

impl Bench for ElectricalBench {
    type Output = ElectricalOutput;

    fn pass(&mut self, threads: Threads, tracer: &mut Tracer) -> ElectricalOutput {
        self.run(threads, tracer, false)
    }

    fn digest(&self, out: &ElectricalOutput) -> String {
        let margins = match &out.margins {
            Ok(m) => m.iter().fold(0u64, |h, m| {
                h.rotate_left(11) ^ m.margin.to_bits() ^ m.i_one.get().to_bits()
            }),
            Err(e) => return format!("plane error: {e}"),
        };
        let s = &out.stats;
        format!(
            "writes={} unverified={} reads={} bad_reads={} currents={:x} sweeps={} reuses={} \
             pulses={} disturbs={} energy={:x} elapsed={:x} margins={margins:x}",
            out.writes,
            out.unverified,
            out.reads,
            out.bad_reads,
            out.currents,
            s.solver_sweeps,
            s.sense_reuses,
            s.write_pulses,
            s.disturb_events,
            s.total_energy().get().to_bits(),
            s.elapsed.get().to_bits(),
        )
    }

    /// Re-runs the pass at one thread with cold-solve sampling, and
    /// checks every write, read, solve and plane margin.
    fn audit(&mut self, out: &ElectricalOutput) -> Audit {
        let checked = self.run(Threads::One, &mut Tracer::new(false), true);
        let tiles = self.grid.tiles();
        let mut audit = Audit {
            work: out.writes + out.reads + 2 * tiles,
            attempted: out.writes + out.reads + 2 * tiles,
            passes: 1,
            ..Audit::default()
        };
        audit.failed = out.unverified + out.bad_reads;
        audit.require(out.unverified == 0, || {
            format!("{} of {} writes did not verify", out.unverified, out.writes)
        });
        audit.require(out.bad_reads == 0, || {
            format!(
                "{} of {} reads returned a wrong bit or did not converge",
                out.bad_reads, out.reads
            )
        });
        audit.require(self.digest(&checked) == self.digest(out), || {
            "the audited pass disagrees with the timed passes".into()
        });
        let worst = checked.warm_cold.iter().fold(0.0f64, |m, d| m.max(d.abs()));
        audit.require(worst < WARM_COLD_TOLERANCE, || {
            format!("a warm solve differs from its cold solve by {worst:e} A")
        });
        match &out.margins {
            Ok(margins) => {
                let low = margins.iter().filter(|m| m.margin < MARGIN_FLOOR).count() as u64;
                audit.failed += 2 * low;
                audit.require(low == 0, || {
                    format!("{low} plane tiles read below the margin floor {MARGIN_FLOOR}")
                });
                let min = margins
                    .iter()
                    .map(|m| m.margin)
                    .fold(f64::INFINITY, f64::min);
                println!(
                    "plane: {} tiles, smallest read margin {min:.4} (floor {MARGIN_FLOOR})",
                    margins.len()
                );
            }
            Err(e) => {
                audit.failed += 2 * tiles;
                audit.problems.push(format!("plane validation failed: {e}"));
            }
        }
        println!(
            "stream: {} writes ({} unverified), {} reads ({} wrong or unconverged), {} sweeps, \
             {} sense reuses; {} warm solves within {worst:.2e} A of cold",
            out.writes,
            out.unverified,
            out.reads,
            out.bad_reads,
            out.stats.solver_sweeps,
            out.stats.sense_reuses,
            checked.warm_cold.len()
        );
        audit
    }
}
