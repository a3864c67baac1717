//! Small shared pieces: the seeded generator, order statistics, the op-list
//! content hash, and process facts read from `/proc`.

/// SplitMix64: the whole input generation hangs off one seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates: a seeded order over a fixed composition.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Put a pass in run order: one fixed interleaving of its ops, entered at
/// an offset chosen by `seed`. The seed moves where the cycle starts but
/// never changes which op follows which, so allocation order, and with it
/// the memory peak, is the same for every seed.
pub fn seeded_order<T>(items: &mut [T], seed: u64) {
    Rng::new(0x5eed).shuffle(items);
    if !items.is_empty() {
        let offset = Rng::new(seed).below(items.len());
        items.rotate_left(offset);
    }
}

/// FNV-1a over the op descriptions, in run order: two runs with equal
/// hashes did identical work.
pub struct ListHash(u64);

impl ListHash {
    pub fn new() -> ListHash {
        ListHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, text: &str) {
        for byte in text.bytes().chain(std::iter::once(b'\n')) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `VmHWM` (peak resident set) of a process, in MB (2^20 bytes).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What a result needs to be compared with another: the machine, the
/// toolchain and source the program was built from, and the work done.
pub fn fingerprint(workload: &str, seed: u64, op_list_hash: &str, ops: usize) -> qcirc::json::Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    qcirc::json::Json::obj()
        .field("nproc", nproc as u64)
        .field("cpu", cpu)
        .field("rustc", spire_serve::metrics::build_rustc())
        .field("git", spire_serve::metrics::build_git_hash())
        .field("workload", workload)
        .field("seed", seed)
        .field("op_list_hash", op_list_hash)
        .field("ops", ops as u64)
        .build()
}
