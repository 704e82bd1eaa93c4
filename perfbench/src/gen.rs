//! Seeded request generation. The benchmark owns its generator (a
//! SplitMix64 stream), so the inputs stay fixed for a seed whatever the
//! program under test does; the program only ever sees the generated text.

use pwdb_logic::stress::seeded_exponential_pi_set;

use crate::Workload;

/// SplitMix64 (Steele, Lea & Flood 2014).
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

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `0.0..1.0`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One client request, as text.
pub enum Request {
    /// An HLU statement. `adversarial` marks the exponential instances that
    /// must abort with `BudgetExceeded`.
    Update { text: String, adversarial: bool },
    /// `is_certain` (or `is_possible`) of a wff.
    Query { certain: bool, text: String },
}

/// Atoms of every workload are named `A1`, `A2`, ….
pub const ATOMS: usize = 64;
/// `durable_ingest` uses only the first 16.
pub const DURABLE_ATOMS: usize = 16;
/// `read_heavy`: exactly-one groups of this size over the first
/// `GROUPS * GROUP_SIZE` atoms.
const GROUPS: usize = 4;
const GROUP_SIZE: usize = 4;
/// `update_heavy`: every `ADVERSARIAL_EVERY`-th request is adversarial.
const ADVERSARIAL_EVERY: u64 = 500;
/// Pairs of the exponential prime-implicate family (49 atoms).
const ADVERSARIAL_PAIRS: usize = 24;
/// Distinct adversarial instances, used in turn.
const ADVERSARIAL_POOL: u64 = 8;
/// `read_heavy`: percent of requests that are queries.
const READ_HEAVY_QUERY_PCT: u64 = 98;
/// Zipf exponent of `read_heavy`'s atom popularity.
const ZIPF_S: f64 = 1.2;
/// Seeds the (fixed) popularity order of `read_heavy`'s atoms, so the
/// workload seed changes the stream but not which atoms are hot.
const POPULARITY_SEED: u64 = 0x5A1F;

/// How atoms are drawn.
enum Picker {
    Uniform(usize),
    /// Zipf over ranks; `perm[rank]` is the atom with that popularity rank.
    Zipf {
        cdf: Vec<f64>,
        perm: Vec<usize>,
    },
}

/// The request stream of one workload.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    picker: Picker,
    issued: u64,
    adversarial: Vec<String>,
}

impl Generator {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let rng = Rng::new(seed ^ workload.salt());
        let picker = match workload {
            Workload::UpdateHeavy => Picker::Uniform(ATOMS),
            Workload::DurableIngest => Picker::Uniform(DURABLE_ATOMS),
            Workload::ReadHeavy => {
                let weights: Vec<f64> = (1..=ATOMS).map(|r| (r as f64).powf(-ZIPF_S)).collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                let cdf = weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect();
                let mut order = Rng::new(POPULARITY_SEED);
                let mut perm: Vec<usize> = (0..ATOMS).collect();
                for i in (1..perm.len()).rev() {
                    perm.swap(i, order.below(i as u64 + 1) as usize);
                }
                Picker::Zipf { cdf, perm }
            }
        };
        let adversarial = match workload {
            Workload::UpdateHeavy => (0..ADVERSARIAL_POOL)
                .map(|i| adversarial_text(seed.wrapping_mul(ADVERSARIAL_POOL) + i))
                .collect(),
            _ => Vec::new(),
        };
        Generator {
            workload,
            rng,
            picker,
            issued: 0,
            adversarial,
        }
    }

    pub fn next_request(&mut self) -> Request {
        self.issued += 1;
        match self.workload {
            Workload::UpdateHeavy => self.update_heavy(),
            Workload::ReadHeavy => self.read_heavy(),
            Workload::DurableIngest => self.durable_ingest(),
        }
    }

    /// The next request that is an update (queries are skipped).
    pub fn next_update(&mut self) -> Request {
        loop {
            if let r @ Request::Update { .. } = self.next_request() {
                return r;
            }
        }
    }

    fn update_heavy(&mut self) -> Request {
        if self.issued.is_multiple_of(ADVERSARIAL_EVERY) {
            let i = (self.issued / ADVERSARIAL_EVERY) as usize % self.adversarial.len();
            return Request::Update {
                text: self.adversarial[i].clone(),
                adversarial: true,
            };
        }
        if self.rng.below(100) < 10 {
            return self.query(1, 3);
        }
        let text = match self.rng.below(100) {
            0..=29 => format!("(insert {{{}}})", self.formula(1, 3)),
            30..=49 => format!("(delete {{{}}})", self.formula(1, 3)),
            50..=64 => format!(
                "(modify {{{}}} {{{}}})",
                self.formula(1, 2),
                self.formula(1, 2)
            ),
            65..=79 => format!("(clear [{}])", self.names(1, 3)),
            _ => self.where_stmt(),
        };
        update(text)
    }

    fn read_heavy(&mut self) -> Request {
        if self.rng.below(100) < READ_HEAVY_QUERY_PCT {
            return self.query(1, 3);
        }
        let text = match self.rng.below(100) {
            0..=39 => format!("(insert {{{}}})", self.formula(1, 3)),
            40..=64 => format!("(delete {{{}}})", self.formula(1, 2)),
            65..=79 => format!(
                "(modify {{{}}} {{{}}})",
                self.formula(1, 2),
                self.formula(1, 2)
            ),
            80..=89 => format!("(clear [{}])", self.names(1, 2)),
            _ => self.where_stmt(),
        };
        update(text)
    }

    fn durable_ingest(&mut self) -> Request {
        if self.rng.below(100) < 10 {
            return self.query(1, 2);
        }
        let lits = self.literals(2);
        let (a, b) = (&lits[0], &lits[1]);
        let text = match self.rng.below(100) {
            0..=29 => format!("(insert {{{a} | {b}}})"),
            30..=44 => format!("(insert {{{a} & {b}}})"),
            45..=59 => format!("(delete {{{a} | {b}}})"),
            60..=74 => format!("(modify {{{a}}} {{{b}}})"),
            75..=84 => format!("(assert {{{a} | {b}}})"),
            _ => format!("(where {{{a}}} (insert {{{b}}}))"),
        };
        update(text)
    }

    fn query(&mut self, lo: usize, hi: usize) -> Request {
        Request::Query {
            certain: self.rng.below(2) == 0,
            text: self.formula(lo, hi),
        }
    }

    fn where_stmt(&mut self) -> String {
        let cond = self.formula(1, 2);
        let body = self.formula(1, 3);
        let op = if self.rng.below(2) == 0 {
            "insert"
        } else {
            "delete"
        };
        format!("(where {{{cond}}} ({op} {{{body}}}))")
    }

    fn atom(&mut self) -> usize {
        match &self.picker {
            Picker::Uniform(n) => self.rng.below(*n as u64) as usize,
            Picker::Zipf { cdf, perm } => {
                let u = self.rng.unit();
                let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
                perm[rank]
            }
        }
    }

    /// `k` distinct atoms.
    fn distinct_atoms(&mut self, k: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let a = self.atom();
            if !out.contains(&a) {
                out.push(a);
            }
        }
        out
    }

    /// `k` literals over distinct atoms, each negated with probability ½.
    fn literals(&mut self, k: usize) -> Vec<String> {
        self.distinct_atoms(k)
            .into_iter()
            .map(|a| {
                let sign = if self.rng.below(2) == 0 { "" } else { "!" };
                format!("{sign}A{}", a + 1)
            })
            .collect()
    }

    /// A conjunction or disjunction of `lo..=hi` literals.
    fn formula(&mut self, lo: usize, hi: usize) -> String {
        let k = lo + self.rng.below((hi - lo + 1) as u64) as usize;
        let sep = if self.rng.below(2) == 0 { " & " } else { " | " };
        self.literals(k).join(sep)
    }

    fn names(&mut self, lo: usize, hi: usize) -> String {
        let k = lo + self.rng.below((hi - lo + 1) as u64) as usize;
        let names: Vec<String> = self
            .distinct_atoms(k)
            .into_iter()
            .map(|a| format!("A{}", a + 1))
            .collect();
        names.join(" ")
    }
}

fn update(text: String) -> Request {
    Request::Update {
        text,
        adversarial: false,
    }
}

/// `(delete {…})` of a seeded instance of the exponential prime-implicate
/// family: its `complement` is a 2^24-clause product, so it can only end
/// by exhausting the step budget.
fn adversarial_text(seed: u64) -> String {
    let set = seeded_exponential_pi_set(ADVERSARIAL_PAIRS, Some(seed));
    let clauses: Vec<String> = set
        .iter()
        .map(|c| {
            let lits: Vec<String> = c
                .literals()
                .iter()
                .map(|l| {
                    let sign = if l.is_positive() { "" } else { "!" };
                    format!("{sign}A{}", l.atom().index() + 1)
                })
                .collect();
            format!("({})", lits.join(" | "))
        })
        .collect();
    format!("(delete {{{}}})", clauses.join(" & "))
}

/// `read_heavy`'s integrity constraints, one clause each: exactly one
/// atom of each group.
pub fn exactly_one_clauses() -> Vec<String> {
    let mut parts = Vec::new();
    for g in 0..GROUPS {
        let atoms: Vec<usize> = (g * GROUP_SIZE + 1..=(g + 1) * GROUP_SIZE).collect();
        let any: Vec<String> = atoms.iter().map(|a| format!("A{a}")).collect();
        parts.push(format!("({})", any.join(" | ")));
        for (i, a) in atoms.iter().enumerate() {
            for b in &atoms[i + 1..] {
                parts.push(format!("(!A{a} | !A{b})"));
            }
        }
    }
    parts
}
