//! Workload inputs, generated by the benchmark from `--seed`. The program
//! under test only ever sees the files written from these.

use bench::amplifier::{expected_leaks, generate, generate_deep, AmpConfig};
use go_corpus::apps::{generate_all, GenConfig, GeneratedApp};
use prng::Prng;
use std::collections::{BTreeSet, VecDeque};

/// Filler functions per kLoC of the original application: the scale the
/// Table 1 harnesses use.
pub const CORPUS_FILLER: f64 = 0.05;

/// The 21 Table 1 replicas; the seed varies the filler code.
pub fn corpus(seed: u64) -> Vec<GeneratedApp> {
    generate_all(&GenConfig {
        seed,
        filler_per_kloc: CORPUS_FILLER,
    })
}

/// The amplified probe: the `BENCH_scale` suite's shape at 960 of its
/// 2400 channels, so the quieter half of a 20 s run still holds enough
/// checks for a p80 tail with ten samples beyond it.
pub fn probe_config(smoke: bool) -> AmpConfig {
    AmpConfig {
        channels: if smoke { 240 } else { 960 },
        leak_every: 60,
        ballast: if smoke { 160 } else { 640 },
    }
}

pub fn probe_source(config: &AmpConfig) -> String {
    generate(config)
}

/// The channel names the probe must report: `leakdone{i}` for every
/// planted leak unit.
pub fn probe_leaks(config: &AmpConfig) -> BTreeSet<String> {
    (0..config.channels)
        .filter(|i| i % config.leak_every == config.leak_every - 1)
        .map(|i| format!("leakdone{i}"))
        .collect()
}

/// The path-heavy module the serve daemon keeps warm (the `serve_bench`
/// shape).
pub const SERVE_AMP: AmpConfig = AmpConfig {
    channels: 96,
    leak_every: 16,
    ballast: 48,
};

/// Diagnostics per leaky path-heavy unit: its blocked fourth send is
/// reported once per suspicious group, and each unit has two.
pub const DIAGS_PER_DEEP_LEAK: usize = 2;

/// The serve module's channel names that must be reported, each
/// [`DIAGS_PER_DEEP_LEAK`] times.
pub fn serve_leaks() -> BTreeSet<String> {
    (0..SERVE_AMP.channels)
        .filter(|i| i % SERVE_AMP.leak_every == SERVE_AMP.leak_every - 1)
        .map(|i| format!("deepch{i}"))
        .collect()
}

pub fn serve_expected_diagnostics() -> usize {
    expected_leaks(&SERVE_AMP) * DIAGS_PER_DEEP_LEAK
}

/// The edit mix of the serve workload, with its weights in percent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EditKind {
    /// A length-preserving edit to a helper no channel reaches.
    TailHelper,
    /// A length-preserving change to one channel's send.
    PsetOp,
    /// One blank line toggled before a random `DeepRun`, which shifts
    /// every later span.
    LineShift,
    /// The exact bytes of one of the last [`REVERT_WINDOW`] requests.
    Revert,
}

impl EditKind {
    pub const ALL: [EditKind; 4] = [
        EditKind::TailHelper,
        EditKind::PsetOp,
        EditKind::LineShift,
        EditKind::Revert,
    ];

    pub fn name(self) -> &'static str {
        match self {
            EditKind::TailHelper => "tail_helper",
            EditKind::PsetOp => "pset_op",
            EditKind::LineShift => "line_shift",
            EditKind::Revert => "revert",
        }
    }

    fn weight(self) -> usize {
        match self {
            EditKind::TailHelper => 55,
            EditKind::PsetOp => 25,
            EditKind::LineShift => 12,
            EditKind::Revert => 8,
        }
    }
}

pub const REVERT_WINDOW: usize = 16;

const REV_PREFIX: &str = "// rev ";
const REV_DIGITS: usize = 7;
const KNOB: &str = "\nfunc tailKnob() int {\n    return ";

/// The seeded serve edit script. Every request carries a fresh revision
/// number in its header comment, so only `revert` repeats earlier bytes.
pub struct EditScript {
    rng: Prng,
    /// The kinds still to come in the current block of 100 edits, which
    /// holds each kind exactly its weight times: drawing kinds one by one
    /// would let the share of costly `line_shift` edits, and with it the
    /// workload's throughput, vary from seed to seed.
    deck: Vec<EditKind>,
    text: String,
    /// `DeepRun` units currently preceded by an extra blank line.
    blanks: BTreeSet<usize>,
    rev: u64,
    history: VecDeque<(String, BTreeSet<usize>)>,
}

impl EditScript {
    pub fn new(seed: u64) -> EditScript {
        let text = format!(
            "{REV_PREFIX}{:0w$}\n{}{KNOB}101\n}}\n",
            0,
            generate_deep(&SERVE_AMP),
            w = REV_DIGITS
        );
        EditScript {
            rng: Prng::seed_from_u64(seed),
            deck: Vec::new(),
            text,
            blanks: BTreeSet::new(),
            rev: 0,
            history: VecDeque::new(),
        }
    }

    /// The current module source.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The current source under a fresh revision: new bytes with the same
    /// analysis, used to warm a restarted daemon.
    pub fn refresh(&mut self) -> &str {
        self.bump_rev();
        &self.text
    }

    /// Draws and applies the next edit.
    pub fn next_edit(&mut self) -> (EditKind, &str) {
        if self.deck.is_empty() {
            self.deck = EditKind::ALL
                .iter()
                .flat_map(|&k| std::iter::repeat_n(k, k.weight()))
                .collect();
            shuffle(&mut self.deck, &mut self.rng);
        }
        let mut kind = self.deck.pop().expect("the deck was just refilled");
        if kind == EditKind::Revert && self.history.is_empty() {
            kind = EditKind::TailHelper;
        }
        match kind {
            EditKind::TailHelper => self.edit_knob(),
            EditKind::PsetOp => self.edit_send(),
            EditKind::LineShift => self.toggle_blank(),
            EditKind::Revert => {
                let back = self.rng.gen_range(0..self.history.len());
                let (text, blanks) = self.history[back].clone();
                self.text = text;
                self.blanks = blanks;
            }
        }
        if kind != EditKind::Revert {
            self.bump_rev();
        }
        if self.history.len() == REVERT_WINDOW {
            self.history.pop_front();
        }
        self.history
            .push_back((self.text.clone(), self.blanks.clone()));
        (kind, &self.text)
    }

    fn bump_rev(&mut self) {
        self.rev += 1;
        let digits = format!(
            "{:0w$}",
            self.rev % 10u64.pow(REV_DIGITS as u32),
            w = REV_DIGITS
        );
        let at = REV_PREFIX.len();
        self.text.replace_range(at..at + REV_DIGITS, &digits);
    }

    fn edit_knob(&mut self) {
        let at = self.text.rfind(KNOB).expect("the tail helper is present") + KNOB.len();
        let old: u64 = self.text[at..at + 3].parse().expect("knob is three digits");
        let mut new = self.rng.gen_range(100..999u64);
        if new >= old {
            new += 1;
        }
        self.text.replace_range(at..at + 3, &new.to_string());
    }

    fn unit_range(&self, i: usize) -> (usize, usize) {
        let head = format!("\nfunc DeepRun{i}(");
        let start = self
            .text
            .find(&head)
            .expect("every DeepRun unit is present")
            + 1;
        let end = self.text[start..]
            .find("\nfunc ")
            .map_or(self.text.len(), |e| start + e);
        (start, end)
    }

    fn edit_send(&mut self) {
        let i = self.rng.gen_range(0..SERVE_AMP.channels);
        let (start, end) = self.unit_range(i);
        let send = format!("deepch{i} <- ");
        let sites: Vec<usize> = self.text[start..end]
            .match_indices(&send)
            .map(|(at, _)| start + at + send.len())
            .collect();
        let at = *self.rng.pick(&sites);
        let old = self.text.as_bytes()[at] - b'0';
        let mut new = self.rng.gen_range(1..9u32) as u8;
        if new >= old {
            new += 1;
        }
        self.text
            .replace_range(at..at + 1, &char::from(b'0' + new).to_string());
    }

    fn toggle_blank(&mut self) {
        let i = self.rng.gen_range(0..SERVE_AMP.channels);
        let (start, _) = self.unit_range(i);
        if self.blanks.remove(&i) {
            self.text.remove(start - 1);
        } else {
            self.text.insert(start, '\n');
            self.blanks.insert(i);
        }
    }
}

/// A replica the fix workload runs `gcatch fix` over, with its expected
/// patches.
pub struct FixModule<'a> {
    pub app: &'a GeneratedApp,
    /// Planted real BMOC bugs with an expected GFix strategy.
    pub expected: usize,
}

/// `gcatch fix` applies at most this many patches before it stops
/// without a fixpoint.
pub const MAX_FIX_ROUNDS: usize = 32;

/// The replicas carrying at least one planted real bug with an expected
/// GFix strategy, split into those whose fix converges within
/// [`MAX_FIX_ROUNDS`] and the known exceptions that need more rounds
/// than `gcatch fix` allows.
pub fn fix_modules(apps: &[GeneratedApp]) -> (Vec<FixModule<'_>>, Vec<FixModule<'_>>) {
    apps.iter()
        .map(|app| FixModule {
            app,
            expected: app
                .plants
                .iter()
                .filter(|p| !p.fp && p.fix.is_some())
                .count(),
        })
        .filter(|m| m.expected > 0)
        .partition(|m| m.expected < MAX_FIX_ROUNDS)
}

fn shuffle<T>(items: &mut [T], rng: &mut Prng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(
        &mut order,
        &mut Prng::seed_from_u64(seed ^ 0x005e_ed0f_f1c5),
    );
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn script_of(seed: u64, n: usize) -> Vec<(EditKind, String)> {
        let mut s = EditScript::new(seed);
        (0..n)
            .map(|_| {
                let (k, t) = s.next_edit();
                (k, t.to_string())
            })
            .collect()
    }

    #[test]
    fn edit_script_is_deterministic_per_seed() {
        assert_eq!(script_of(7, 60), script_of(7, 60));
        assert_ne!(script_of(7, 60), script_of(8, 60));
    }

    #[test]
    fn edit_kinds_change_the_source_as_specified() {
        let mut s = EditScript::new(2026);
        let mut seen = BTreeSet::new();
        let mut texts: Vec<String> = vec![s.text().to_string()];
        for _ in 0..400 {
            let before = s.text().to_string();
            let (kind, after) = s.next_edit();
            let after = after.to_string();
            seen.insert(kind);
            match kind {
                EditKind::TailHelper | EditKind::PsetOp => {
                    assert_eq!(before.len(), after.len(), "{kind:?} keeps the length");
                    let diffs: Vec<usize> = before
                        .bytes()
                        .zip(after.bytes())
                        .enumerate()
                        .filter(|(_, (a, b))| a != b)
                        .map(|(i, _)| i)
                        .collect();
                    let body: Vec<&usize> = diffs.iter().filter(|&&i| i >= 14).collect();
                    assert!(!body.is_empty(), "{kind:?} edits the module body");
                    if kind == EditKind::PsetOp {
                        assert_eq!(body.len(), 1, "one send value changes");
                        assert!(after[..*body[0]].ends_with(" <- "), "the change is a send");
                    }
                }
                EditKind::LineShift => {
                    assert_eq!(before.len().abs_diff(after.len()), 1);
                }
                EditKind::Revert => {
                    assert!(texts[texts.len().saturating_sub(REVERT_WINDOW)..].contains(&after));
                }
            }
            if kind != EditKind::Revert {
                assert!(!texts.contains(&after), "fresh revision gives fresh bytes");
            }
            texts.push(after);
        }
        assert_eq!(seen.len(), 4, "every edit kind occurs");
    }

    #[test]
    fn every_hundred_edits_hold_the_exact_mix() {
        let mut s = EditScript::new(11);
        for _ in 0..100 {
            s.next_edit();
        }
        let mut counts = BTreeMap::new();
        for _ in 0..100 {
            *counts.entry(s.next_edit().0).or_insert(0) += 1;
        }
        for k in EditKind::ALL {
            assert_eq!(counts[&k], k.weight(), "{k:?}");
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(10, 1);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_eq!(a, shuffled(10, 1));
    }
}
