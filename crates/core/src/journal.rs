//! Write-ahead results journal for resumable campaigns.
//!
//! The paper's campaigns ran for days across three boards; losing a run to
//! a crash meant losing the day. The journal makes campaign progress
//! durable: one header line binding the file to a specific plan, then one
//! line per *completed* cell, appended and flushed before the result is
//! considered done. `--resume` replays the journal, skips every journaled
//! cell, and merges the rehydrated outcomes with the freshly-computed
//! remainder — byte-identical to an uninterrupted run, because per-cell
//! seeds derive from `(master_seed, cell_index)` alone.
//!
//! # Format
//!
//! ```text
//! redvolt-journal v1 <meta>
//! cell <index> attempts=<n> <payload>
//! ```
//!
//! `<meta>` identifies the producing plan (the supervisor uses
//! `seed=<master_seed> fingerprint=<fnv64 hex>`); a resume against a
//! journal whose meta differs is refused rather than silently merged.
//! `<payload>` is a single-line, space-free-except-aborted encoding of the
//! cell outcome (see [`encode_outcome`]). A truncated final line — the
//! writer died mid-append — is detected and ignored, so the cell it would
//! have recorded is simply re-run.

use crate::executor::{CampaignPlan, CellOutcome};
use crate::experiment::Measurement;
use crate::governor::{GovernorStep, GovernorTrace, RescueStep, RescueTrace};
use crate::sweep::VoltageSweep;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// Magic first token of a journal header.
const MAGIC: &str = "redvolt-journal";
/// Format version token.
const VERSION: &str = "v1";

/// FNV-1a 64-bit hash, the journal's plan-identity primitive (stable,
/// dependency-free, not cryptographic — it guards against mistakes, not
/// adversaries).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of a plan: master seed plus every cell's derived seed and
/// whole debug-formatted spec. Two plans that could produce different
/// results get different fingerprints; a journal never merges across them.
pub fn plan_fingerprint(plan: &CampaignPlan) -> u64 {
    let mut desc = format!("seed={}", plan.master_seed);
    for (i, cell) in plan.cells().iter().enumerate() {
        desc.push_str(&format!(";{i}={}:{cell:?}", plan.cell_seed(i)));
    }
    fnv1a(desc.as_bytes())
}

/// The supervisor's header meta for a plan.
pub fn plan_meta(plan: &CampaignPlan) -> String {
    format!(
        "seed={} fingerprint={:016x}",
        plan.master_seed,
        plan_fingerprint(plan)
    )
}

/// One journaled cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Plan index of the cell.
    pub index: usize,
    /// Attempts the cell took when it completed.
    pub attempts: u32,
    /// Encoded outcome payload (see [`encode_outcome`]).
    pub payload: String,
}

/// Append-only journal writer; every entry is flushed before
/// [`JournalWriter::append`] returns (write-ahead semantics).
#[derive(Debug)]
pub struct JournalWriter {
    out: BufWriter<File>,
}

impl JournalWriter {
    /// Creates a fresh journal at `path`, writing the header line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn create(path: &Path, meta: &str) -> io::Result<Self> {
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        writeln!(out, "{MAGIC} {VERSION} {meta}")?;
        out.flush()?;
        Ok(JournalWriter { out })
    }

    /// Opens an existing journal for appending (the resume path; the
    /// header is assumed already validated by [`read_journal`]).
    ///
    /// A torn final line — the previous writer died mid-append — is
    /// truncated away first. [`read_journal`] already ignores the
    /// fragment, but appending *after* it would fuse the fragment with
    /// the next entry into one malformed record, so the incomplete
    /// record is dropped on disk as well and its cell simply re-runs.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append_to(path: &Path) -> io::Result<Self> {
        use std::io::{Seek, SeekFrom};
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        if let Some(pos) = raw.iter().rposition(|&b| b == b'\n') {
            let keep = (pos + 1) as u64;
            if keep < raw.len() as u64 {
                file.set_len(keep)?;
            }
        }
        file.seek(SeekFrom::End(0))?;
        Ok(JournalWriter {
            out: BufWriter::new(file),
        })
    }

    /// Appends one completed cell and flushes it to the OS before
    /// returning.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append(&mut self, entry: &JournalEntry) -> io::Result<()> {
        debug_assert!(
            !entry.payload.contains('\n'),
            "journal payloads are single-line"
        );
        writeln!(
            self.out,
            "cell {} attempts={} {}",
            entry.index, entry.attempts, entry.payload
        )?;
        self.out.flush()
    }
}

/// Reads a journal, validating its header against `meta` and tolerating a
/// truncated final line. Returns the journaled cells keyed by plan index
/// (later duplicates win — a retried-and-rejournaled cell supersedes its
/// earlier record). A missing file reads as an empty journal.
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidData`] when the file exists but its
/// header is malformed or its meta does not match — resuming someone
/// else's journal corrupts both campaigns, so it is refused.
pub fn read_journal(path: &Path, meta: &str) -> io::Result<BTreeMap<usize, JournalEntry>> {
    let mut raw = String::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_string(&mut raw)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(e),
    }
    // A truncated tail (writer died mid-append) is not an error: drop the
    // partial line, the cell re-runs.
    let complete = match raw.rfind('\n') {
        Some(end) => &raw[..=end],
        None if raw.is_empty() => return Ok(BTreeMap::new()),
        None => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "journal has no complete header line",
            ))
        }
    };
    let mut lines = complete.lines();
    let header = lines.next().unwrap_or("");
    let expected = format!("{MAGIC} {VERSION} {meta}");
    if header != expected {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("journal header mismatch: found {header:?}, expected {expected:?} — refusing to resume a different plan's journal"),
        ));
    }
    let mut entries = BTreeMap::new();
    for line in lines {
        if let Some(entry) = parse_entry(line) {
            entries.insert(entry.index, entry);
        }
    }
    Ok(entries)
}

fn parse_entry(line: &str) -> Option<JournalEntry> {
    let mut parts = line.splitn(4, ' ');
    if parts.next()? != "cell" {
        return None;
    }
    let index: usize = parts.next()?.parse().ok()?;
    let attempts: u32 = parts.next()?.strip_prefix("attempts=")?.parse().ok()?;
    let payload = parts.next()?.to_string();
    Some(JournalEntry {
        index,
        attempts,
        payload,
    })
}

/// Encodes a cell outcome as a single-line journal payload. The encoding
/// round-trips exactly ([`decode_outcome`]): floats use Rust's shortest
/// round-trip `{:?}` formatting, the same convention as
/// `CampaignReport::to_csv`, so a rehydrated outcome serializes to the
/// same bytes as the original.
pub fn encode_outcome(outcome: &CellOutcome) -> String {
    match outcome {
        CellOutcome::Measure(m) => format!("measure {}", m.csv_row()),
        CellOutcome::Sweep(s) => {
            let points = if s.points.is_empty() {
                "-".to_string()
            } else {
                s.points
                    .iter()
                    .map(Measurement::csv_row)
                    .collect::<Vec<_>>()
                    .join("|")
            };
            let crashed = match s.crashed_at_mv {
                Some(mv) => format!("{mv:?}"),
                None => "none".to_string(),
            };
            format!("sweep {points} crashed_at={crashed}")
        }
        CellOutcome::Governor(t) => {
            let steps = if t.steps.is_empty() {
                "-".to_string()
            } else {
                t.steps
                    .iter()
                    .map(|s| {
                        format!(
                            "{},{:?},{},{:?},{}",
                            s.batch,
                            s.vccint_mv,
                            s.faults,
                            s.power_w,
                            u8::from(s.crashed)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("|")
            };
            format!("governor {steps} settled={:?}", t.settled_mv)
        }
        CellOutcome::Degraded { measurement, trace } => {
            let steps = if trace.steps.is_empty() {
                "-".to_string()
            } else {
                trace
                    .steps
                    .iter()
                    .map(|s| format!("{},{:?},{:?},{}", s.window, s.f_mhz, s.vccint_mv, s.events))
                    .collect::<Vec<_>>()
                    .join("|")
            };
            format!(
                "degraded {steps} final={} rescued={}",
                measurement.csv_row(),
                u8::from(trace.rescued)
            )
        }
        CellOutcome::Aborted { cause } => {
            format!("aborted {}", cause.replace(['\n', '\r'], " "))
        }
    }
}

/// Decodes a journal payload back into a cell outcome. Returns `None` on
/// any malformed payload (the caller treats the cell as not journaled).
pub fn decode_outcome(payload: &str) -> Option<CellOutcome> {
    let (kind, rest) = payload.split_once(' ')?;
    match kind {
        "measure" => Some(CellOutcome::Measure(parse_measurement(rest)?)),
        "sweep" => {
            let (points_s, crashed_s) = rest.rsplit_once(' ')?;
            let crashed_s = crashed_s.strip_prefix("crashed_at=")?;
            let crashed_at_mv = if crashed_s == "none" {
                None
            } else {
                Some(crashed_s.parse().ok()?)
            };
            let points = if points_s == "-" {
                Vec::new()
            } else {
                points_s
                    .split('|')
                    .map(parse_measurement)
                    .collect::<Option<Vec<_>>>()?
            };
            Some(CellOutcome::Sweep(VoltageSweep {
                points,
                crashed_at_mv,
            }))
        }
        "governor" => {
            let (steps_s, settled_s) = rest.rsplit_once(' ')?;
            let settled_mv = settled_s.strip_prefix("settled=")?.parse().ok()?;
            let steps = if steps_s == "-" {
                Vec::new()
            } else {
                steps_s
                    .split('|')
                    .map(parse_governor_step)
                    .collect::<Option<Vec<_>>>()?
            };
            Some(CellOutcome::Governor(GovernorTrace { steps, settled_mv }))
        }
        "degraded" => {
            let (rest, rescued_s) = rest.rsplit_once(' ')?;
            let rescued = match rescued_s.strip_prefix("rescued=")? {
                "0" => false,
                "1" => true,
                _ => return None,
            };
            let (steps_s, final_s) = rest.rsplit_once(' ')?;
            let measurement = parse_measurement(final_s.strip_prefix("final=")?)?;
            let steps = if steps_s == "-" {
                Vec::new()
            } else {
                steps_s
                    .split('|')
                    .map(parse_rescue_step)
                    .collect::<Option<Vec<_>>>()?
            };
            Some(CellOutcome::Degraded {
                measurement,
                trace: RescueTrace { steps, rescued },
            })
        }
        "aborted" => Some(CellOutcome::Aborted {
            cause: rest.to_string(),
        }),
        _ => None,
    }
}

fn parse_measurement(row: &str) -> Option<Measurement> {
    let f: Vec<&str> = row.split(',').collect();
    if f.len() != 9 {
        return None;
    }
    Some(Measurement {
        vccint_mv: f[0].parse().ok()?,
        f_mhz: f[1].parse().ok()?,
        accuracy: f[2].parse().ok()?,
        power_w: f[3].parse().ok()?,
        gops: f[4].parse().ok()?,
        gops_per_w: f[5].parse().ok()?,
        junction_c: f[6].parse().ok()?,
        injected_faults: f[7].parse().ok()?,
        accuracy_std: f[8].parse().ok()?,
    })
}

fn parse_rescue_step(s: &str) -> Option<RescueStep> {
    let f: Vec<&str> = s.split(',').collect();
    if f.len() != 4 {
        return None;
    }
    Some(RescueStep {
        window: f[0].parse().ok()?,
        f_mhz: f[1].parse().ok()?,
        vccint_mv: f[2].parse().ok()?,
        events: f[3].parse().ok()?,
    })
}

fn parse_governor_step(s: &str) -> Option<GovernorStep> {
    let f: Vec<&str> = s.split(',').collect();
    if f.len() != 5 {
        return None;
    }
    Some(GovernorStep {
        batch: f[0].parse().ok()?,
        vccint_mv: f[1].parse().ok()?,
        faults: f[2].parse().ok()?,
        power_w: f[3].parse().ok()?,
        crashed: match f[4] {
            "0" => false,
            "1" => true,
            _ => return None,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_suite::BenchmarkId;
    use crate::executor::{CellAction, CellSpec};
    use crate::experiment::AcceleratorConfig;

    fn sample_measurement(seed: f64) -> Measurement {
        Measurement {
            vccint_mv: 850.0 - seed,
            f_mhz: 333.0,
            accuracy: 0.8633333333333333 + seed * 1e-6,
            power_w: 12.591234 + seed,
            gops: 1234.5678,
            gops_per_w: 98.0321,
            junction_c: 41.25,
            injected_faults: 17,
            accuracy_std: 0.001953125,
        }
    }

    #[test]
    fn outcome_codec_round_trips_every_kind() {
        let outcomes = vec![
            CellOutcome::Measure(sample_measurement(0.0)),
            CellOutcome::Sweep(VoltageSweep {
                points: vec![sample_measurement(1.0), sample_measurement(2.0)],
                crashed_at_mv: Some(540.0),
            }),
            CellOutcome::Sweep(VoltageSweep {
                points: Vec::new(),
                crashed_at_mv: None,
            }),
            CellOutcome::Governor(GovernorTrace {
                steps: vec![
                    GovernorStep {
                        batch: 0,
                        vccint_mv: 850.0,
                        faults: 0,
                        power_w: 12.5,
                        crashed: false,
                    },
                    GovernorStep {
                        batch: 1,
                        vccint_mv: 545.5,
                        faults: 3,
                        power_w: 4.321,
                        crashed: true,
                    },
                ],
                settled_mv: 570.0,
            }),
            CellOutcome::Degraded {
                measurement: sample_measurement(3.0),
                trace: RescueTrace {
                    steps: vec![
                        RescueStep {
                            window: 0,
                            f_mhz: 333.0,
                            vccint_mv: 550.0,
                            events: 12,
                        },
                        RescueStep {
                            window: 1,
                            f_mhz: 308.0,
                            vccint_mv: 550.0,
                            events: 0,
                        },
                    ],
                    rescued: true,
                },
            },
            CellOutcome::Degraded {
                measurement: sample_measurement(4.0),
                trace: RescueTrace {
                    steps: Vec::new(),
                    rescued: false,
                },
            },
            CellOutcome::Aborted {
                cause: "panic: step_mv must be positive and finite".to_string(),
            },
        ];
        for outcome in outcomes {
            let encoded = encode_outcome(&outcome);
            assert!(!encoded.contains('\n'));
            let decoded = decode_outcome(&encoded).expect(&encoded);
            assert_eq!(decoded, outcome, "payload: {encoded}");
        }
    }

    #[test]
    fn fingerprint_distinguishes_plans() {
        let mk = |seed: u64, images: usize| {
            let mut plan = CampaignPlan::new(seed);
            plan.push(CellSpec {
                config: AcceleratorConfig::tiny(BenchmarkId::VggNet),
                action: CellAction::Measure {
                    vccint_mv: None,
                    images,
                },
                force_temp_c: None,
            });
            plan
        };
        assert_eq!(plan_fingerprint(&mk(1, 8)), plan_fingerprint(&mk(1, 8)));
        assert_ne!(plan_fingerprint(&mk(1, 8)), plan_fingerprint(&mk(2, 8)));
        assert_ne!(plan_fingerprint(&mk(1, 8)), plan_fingerprint(&mk(1, 9)));
    }

    #[test]
    fn fingerprint_partitions_defense_and_governor() {
        use redvolt_faults::bus::BusFaultProfile;
        use redvolt_nn::abft::DefenseMode;
        use redvolt_nn::models::ModelScale;
        let fingerprint = |config: AcceleratorConfig| {
            let mut plan = CampaignPlan::new(1);
            plan.push(CellSpec {
                config,
                action: CellAction::Measure {
                    vccint_mv: Some(550.0),
                    images: 8,
                },
                force_temp_c: None,
            });
            plan_fingerprint(&plan)
        };
        let base = AcceleratorConfig::tiny(BenchmarkId::VggNet);
        // One input per config field: a resume must not merge a journal
        // written under any other value of any of them.
        let variants = [
            AcceleratorConfig {
                board_sample: 1,
                ..base
            },
            AcceleratorConfig {
                benchmark: BenchmarkId::AlexNet,
                ..base
            },
            AcceleratorConfig { bits: 4, ..base },
            AcceleratorConfig {
                scale: ModelScale::Paper,
                ..base
            },
            AcceleratorConfig {
                prune_fraction: 0.5,
                ..base
            },
            AcceleratorConfig {
                eval_images: 25,
                ..base
            },
            AcceleratorConfig {
                repetitions: 3,
                ..base
            },
            AcceleratorConfig { seed: 43, ..base },
            AcceleratorConfig {
                bus_faults: BusFaultProfile::light(),
                ..base
            },
            AcceleratorConfig {
                defense: DefenseMode::Detect,
                ..base
            },
            AcceleratorConfig {
                defense: DefenseMode::Correct,
                ..base
            },
            AcceleratorConfig {
                governor: true,
                ..base
            },
        ];
        let off = fingerprint(base);
        for config in variants {
            assert_ne!(off, fingerprint(config), "{config:?}");
        }
    }

    #[test]
    fn journal_write_read_round_trip_with_truncated_tail() {
        let dir = std::env::temp_dir().join("redvolt-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("rt-{}.journal", std::process::id()));
        let meta = "seed=7 fingerprint=00000000deadbeef";

        let mut w = JournalWriter::create(&path, meta).unwrap();
        let e0 = JournalEntry {
            index: 0,
            attempts: 1,
            payload: encode_outcome(&CellOutcome::Measure(sample_measurement(0.0))),
        };
        let e2 = JournalEntry {
            index: 2,
            attempts: 3,
            payload: encode_outcome(&CellOutcome::Aborted {
                cause: "watchdog: wall-clock cap exceeded".to_string(),
            }),
        };
        w.append(&e0).unwrap();
        w.append(&e2).unwrap();
        drop(w);

        // Simulate a writer killed mid-append: partial line, no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "cell 3 attempts=1 measure 850.0,333.0,0.8").unwrap();
        }

        let entries = read_journal(&path, meta).unwrap();
        assert_eq!(entries.len(), 2, "truncated tail line must be dropped");
        assert_eq!(entries[&0], e0);
        assert_eq!(entries[&2], e2);
        assert_eq!(
            decode_outcome(&entries[&0].payload),
            Some(CellOutcome::Measure(sample_measurement(0.0)))
        );

        // Wrong meta is refused, not merged.
        let err = read_journal(&path, "seed=8 fingerprint=0000000000000000").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Missing file reads as empty.
        let missing = dir.join("does-not-exist.journal");
        assert!(read_journal(&missing, meta).unwrap().is_empty());

        std::fs::remove_file(&path).ok();
    }

    /// Regression for torn-tail recovery on the *writer* path: appending
    /// to a journal whose final record was truncated mid-write used to
    /// glue the fresh entry onto the fragment, producing one malformed
    /// record that poisoned the *next* resume. Truncate the journal at
    /// every byte offset of its last record and prove that resuming —
    /// read, then append a replacement — always yields a clean journal.
    #[test]
    fn torn_tail_is_repaired_before_appending() {
        let dir = std::env::temp_dir().join("redvolt-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let meta = "seed=7 fingerprint=00000000deadbeef";

        let e0 = JournalEntry {
            index: 0,
            attempts: 1,
            payload: encode_outcome(&CellOutcome::Measure(sample_measurement(0.0))),
        };
        let e1 = JournalEntry {
            index: 1,
            attempts: 2,
            payload: encode_outcome(&CellOutcome::Measure(sample_measurement(1.0))),
        };
        let reference = {
            let path = dir.join(format!("torn-ref-{}.journal", std::process::id()));
            let mut w = JournalWriter::create(&path, meta).unwrap();
            w.append(&e0).unwrap();
            w.append(&e1).unwrap();
            drop(w);
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            bytes
        };
        let last_record_start = reference[..reference.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;

        for cut in last_record_start..reference.len() {
            let path = dir.join(format!("torn-{}-{}.journal", std::process::id(), cut));
            std::fs::write(&path, &reference[..cut]).unwrap();

            // Resume: the torn record is invisible to the reader...
            let entries = read_journal(&path, meta).unwrap();
            assert_eq!(entries.len(), 1, "cut at {cut}");
            assert_eq!(entries[&0], e0);

            // ...and the writer drops it before appending, so the re-run
            // cell's fresh record lands on a clean line.
            let mut w = JournalWriter::append_to(&path).unwrap();
            w.append(&e1).unwrap();
            drop(w);

            let recovered = read_journal(&path, meta).unwrap();
            assert_eq!(recovered.len(), 2, "cut at {cut}");
            assert_eq!(recovered[&0], e0);
            assert_eq!(recovered[&1], e1, "cut at {cut}");
            assert_eq!(
                decode_outcome(&recovered[&1].payload),
                Some(CellOutcome::Measure(sample_measurement(1.0))),
                "cut at {cut}"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}
