//! The three workloads: their seeded request streams and the serving
//! configuration each one runs under.

use axcore_nn::KvPageConfig;
use axcore_quant::KvQuantConfig;

/// SplitMix64: a small, seedable generator, so request streams repeat
/// exactly for a seed on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// One generation request: what the program is given, nothing more.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub prompt: Vec<usize>,
    pub budget: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop of 8 clients, short prompts, long outputs, exact tier.
    Chat,
    /// Closed loop of 4 clients, long prompts, short outputs, `Auto`
    /// tier and 4-bit KV pages.
    LongPrompt,
    /// Batches submitted at once through the `Server` front door, W4A8
    /// tier forced process-wide.
    Offline,
}

pub const ALL: [Kind; 3] = [Kind::Chat, Kind::LongPrompt, Kind::Offline];

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Chat => "chat",
            Kind::LongPrompt => "longprompt",
            Kind::Offline => "offline",
        }
    }

    /// Prompt length range, inclusive.
    pub fn prompt_range(self) -> (usize, usize) {
        match self {
            Kind::Chat => (8, 32),
            Kind::LongPrompt => (96, 160),
            Kind::Offline => (8, 128),
        }
    }

    /// Output budget range, inclusive.
    pub fn output_range(self) -> (usize, usize) {
        match self {
            Kind::Chat => (32, 96),
            Kind::LongPrompt => (4, 16),
            Kind::Offline => (8, 64),
        }
    }

    /// Closed-loop clients (chat, longprompt) or the server's
    /// `max_batch` (offline).
    pub fn clients(self) -> usize {
        match self {
            Kind::Chat | Kind::Offline => 8,
            Kind::LongPrompt => 4,
        }
    }

    /// `AXCORE_ACT` value the process runs under.
    pub fn act_policy(self) -> &'static str {
        match self {
            Kind::Chat => "never",
            Kind::LongPrompt => "auto",
            Kind::Offline => "always",
        }
    }

    /// KV page configuration: FP pages except on `longprompt`, which
    /// seals every filled page to the paper's OPT 4-bit formats.
    pub fn kv(self) -> KvPageConfig {
        match self {
            Kind::LongPrompt => KvPageConfig {
                quant: Some(KvQuantConfig::opt()),
                ..KvPageConfig::default()
            },
            Kind::Chat | Kind::Offline => KvPageConfig::default(),
        }
    }
}

/// Requests per stratified block: every block of this many consecutive
/// requests draws one prompt length and one budget from each eighth of
/// its range, in a seeded order.
pub const STRATA: usize = 8;

/// Lower edge of stratum `i` of `lo..=hi` (`i == STRATA` gives `hi + 1`).
fn stratum_edge((lo, hi): (usize, usize), i: usize) -> usize {
    lo + i * (hi - lo + 1) / STRATA
}

/// One length from each of `STRATA` near-equal slices of `lo..=hi`,
/// uniform within its slice, in a shuffled order.
fn stratified(rng: &mut Rng, range: (usize, usize)) -> Vec<usize> {
    let mut v: Vec<usize> = (0..STRATA)
        .map(|i| rng.range(stratum_edge(range, i), stratum_edge(range, i + 1) - 1))
        .collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.range(0, i));
    }
    v
}

/// The endless, seeded request stream of a workload. Lengths are
/// uniform over their ranges and stratified in blocks of [`STRATA`], so
/// a run of a few dozen requests sees the whole range whatever the
/// seed; token ids are uniform over the vocabulary.
#[derive(Debug, Clone)]
pub struct Requests {
    rng: Rng,
    kind: Kind,
    vocab: usize,
    lens: Vec<usize>,
    budgets: Vec<usize>,
}

impl Requests {
    pub fn new(kind: Kind, seed: u64, vocab: usize) -> Self {
        Requests {
            rng: Rng::new(seed),
            kind,
            vocab,
            lens: Vec::new(),
            budgets: Vec::new(),
        }
    }
}

impl Iterator for Requests {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.lens.is_empty() {
            self.lens = stratified(&mut self.rng, self.kind.prompt_range());
            self.budgets = stratified(&mut self.rng, self.kind.output_range());
        }
        let len = self.lens.pop()?;
        let budget = self.budgets.pop()?;
        let prompt = (0..len)
            .map(|_| self.rng.range(0, self.vocab - 1))
            .collect();
        Some(Request { prompt, budget })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        for kind in ALL {
            let a: Vec<Request> = Requests::new(kind, 7, 512).take(20).collect();
            let b: Vec<Request> = Requests::new(kind, 7, 512).take(20).collect();
            let c: Vec<Request> = Requests::new(kind, 8, 512).take(20).collect();
            assert_eq!(a, b, "{}: a seed must reproduce its requests", kind.name());
            assert_ne!(
                a,
                c,
                "{}: another seed must give other requests",
                kind.name()
            );
        }
    }

    #[test]
    fn requests_stay_in_their_ranges() {
        for kind in ALL {
            let (plo, phi) = kind.prompt_range();
            let (olo, ohi) = kind.output_range();
            for r in Requests::new(kind, 3, 512).take(200) {
                assert!((plo..=phi).contains(&r.prompt.len()));
                assert!((olo..=ohi).contains(&r.budget));
                assert!(r.prompt.iter().all(|&t| t < 512));
            }
        }
    }

    #[test]
    fn every_block_covers_each_stratum_once() {
        for kind in ALL {
            for (range, len) in [
                (
                    kind.prompt_range(),
                    (|r: &Request| r.prompt.len()) as fn(&Request) -> usize,
                ),
                (kind.output_range(), |r: &Request| r.budget),
            ] {
                let reqs: Vec<Request> = Requests::new(kind, 9, 512).take(4 * STRATA).collect();
                for block in reqs.chunks(STRATA) {
                    let mut strata: Vec<usize> = block
                        .iter()
                        .map(|r| {
                            (0..STRATA)
                                .filter(|&i| stratum_edge(range, i) <= len(r))
                                .count()
                                - 1
                        })
                        .collect();
                    strata.sort_unstable();
                    assert_eq!(strata, (0..STRATA).collect::<Vec<_>>(), "{}", kind.name());
                }
            }
        }
    }

    #[test]
    fn kinds_parse_by_name() {
        for kind in ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
