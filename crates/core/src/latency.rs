//! Pairwise communication-latency matrices.
//!
//! The model assumes the latency `c_{ij}` of relaying a single request
//! between servers `i` and `j` is a constant that does not depend on the
//! exchanged volume (validated by the paper's PlanetLab experiment, which
//! `dlb-netsim` recreates). `c_{ii} = 0` always. An entry of
//! `f64::INFINITY` encodes "organization `i` may not relay to `j`"
//! (the trust-restricted variant from §II).
//!
//! Storage is adaptive: the paper's homogeneous network (`c_{ij} = c`)
//! is held as a single scalar — `O(1)` memory instead of the dense
//! `m²` table, which at the 100 000-server scale the event runtime
//! targets would be an 80 GB allocation. Heterogeneous generators get
//! the dense representation the moment they write a non-uniform entry.

/// Pivots [`LatencyMatrix::metric_close`] fuses into one pass over the
/// matrix; its row stream is written out for four.
const PIVOT_BLOCK: usize = 4;

/// An `m × m` matrix of pairwise communication latencies in
/// milliseconds.
///
/// The matrix is not required to be symmetric (real RTT measurements are
/// mildly asymmetric) but must have a zero diagonal and non-negative
/// entries. Equality is semantic (entry-wise), independent of the
/// internal representation.
#[derive(Debug, Clone)]
pub struct LatencyMatrix {
    m: usize,
    storage: Storage,
}

#[derive(Debug, Clone)]
enum Storage {
    /// Row-major `m * m` entries.
    Dense(Vec<f64>),
    /// `c_{ij} = c` for every `i ≠ j`, zero diagonal. Covers both the
    /// paper's homogeneous network and the degenerate single-site
    /// (all-zero) network without materializing `m²` floats.
    Homogeneous(f64),
}

impl LatencyMatrix {
    /// Builds a latency matrix from row-major data.
    ///
    /// # Panics
    /// Panics when `data.len() != m * m`, a diagonal entry is non-zero,
    /// or any entry is negative / NaN.
    pub fn from_rows(m: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), m * m, "latency data must be m*m");
        for i in 0..m {
            assert_eq!(data[i * m + i], 0.0, "diagonal latency must be zero");
        }
        for (idx, &v) in data.iter().enumerate() {
            assert!(
                v >= 0.0,
                "latency must be non-negative (entry {idx} is {v})"
            );
        }
        Self {
            m,
            storage: Storage::Dense(data),
        }
    }

    /// A fully connected homogeneous network: `c_{ij} = c` for all
    /// `i ≠ j` (the paper's `c_{ij} = 20` configuration). `O(1)` memory
    /// for any `m`.
    pub fn homogeneous(m: usize, c: f64) -> Self {
        assert!(c >= 0.0, "latency must be non-negative");
        Self {
            m,
            storage: Storage::Homogeneous(c),
        }
    }

    /// The degenerate single-site network (all latencies zero): classic
    /// delay-oblivious load balancing.
    pub fn zero(m: usize) -> Self {
        Self {
            m,
            storage: Storage::Homogeneous(0.0),
        }
    }

    /// Number of servers.
    #[inline]
    pub fn len(&self) -> usize {
        self.m
    }

    /// Returns `true` for the empty (0-server) matrix.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// When every off-diagonal entry is the *same* constant `c` (and the
    /// matrix is stored compactly as such), returns `Some(c)`.
    ///
    /// This is a representation query, not an `O(m²)` content scan: a
    /// dense matrix that happens to be uniform returns `None`. Callers
    /// use it to pick `O(k)` fast paths (e.g. nearest-`k` candidate
    /// construction) that would otherwise scan full rows.
    #[inline]
    pub fn homogeneous_value(&self) -> Option<f64> {
        match self.storage {
            Storage::Homogeneous(c) => Some(c),
            Storage::Dense(_) => None,
        }
    }

    /// Latency from server `i` to server `j` in ms.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.m && j < self.m);
        match &self.storage {
            Storage::Dense(data) => data[i * self.m + j],
            Storage::Homogeneous(c) => {
                if i == j {
                    0.0
                } else {
                    *c
                }
            }
        }
    }

    /// Mutable access used by topology generators.
    ///
    /// A compactly stored homogeneous matrix densifies on the first
    /// write that breaks uniformity (generators only do this at
    /// generator scale, never on the 100k fast path).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(value >= 0.0, "latency must be non-negative");
        assert!(i != j || value == 0.0, "diagonal latency must stay zero");
        if let Storage::Homogeneous(c) = self.storage {
            if i == j || value == c {
                return; // still uniform, nothing to store
            }
            self.densify();
        }
        match &mut self.storage {
            Storage::Dense(data) => data[i * self.m + j] = value,
            Storage::Homogeneous(_) => unreachable!("densified above"),
        }
    }

    /// Materializes the dense representation (no-op when already dense).
    fn densify(&mut self) {
        if let Storage::Homogeneous(c) = self.storage {
            let mut data = vec![c; self.m * self.m];
            for i in 0..self.m {
                data[i * self.m + i] = 0.0;
            }
            self.storage = Storage::Dense(data);
        }
    }

    /// Mean off-diagonal finite latency; `0` for `m < 2`.
    pub fn mean_latency(&self) -> f64 {
        match &self.storage {
            Storage::Homogeneous(c) => {
                if self.m >= 2 && c.is_finite() {
                    *c
                } else {
                    0.0
                }
            }
            Storage::Dense(data) => {
                let mut sum = 0.0;
                let mut count = 0usize;
                for i in 0..self.m {
                    for j in 0..self.m {
                        if i != j && data[i * self.m + j].is_finite() {
                            sum += data[i * self.m + j];
                            count += 1;
                        }
                    }
                }
                if count == 0 {
                    0.0
                } else {
                    sum / count as f64
                }
            }
        }
    }

    /// Largest finite off-diagonal latency (0 when none).
    pub fn max_latency(&self) -> f64 {
        match &self.storage {
            Storage::Homogeneous(c) => {
                if self.m >= 2 && c.is_finite() {
                    *c
                } else {
                    0.0
                }
            }
            Storage::Dense(data) => data
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .fold(0.0, f64::max),
        }
    }

    /// Returns `true` when the matrix satisfies the triangle inequality
    /// `c_{ij} ≤ c_{ik} + c_{kj}` up to `tol`.
    ///
    /// The paper assumes the network layer already routes optimally, so
    /// model inputs should be metric-closed; topology generators use
    /// [`Self::metric_close`] to enforce this.
    ///
    /// Each `(k, i)` pair is one branch-free pass over rows `i` and `k`.
    /// An infinite `c_{ik}` or `c_{kj}` needs no skip: `c_{ik} + c_{kj} +
    /// tol` is then `+∞` (or NaN for `tol = -∞`), which no entry exceeds.
    pub fn is_metric(&self, tol: f64) -> bool {
        let m = self.m;
        let data = match &self.storage {
            // c ≤ c + c holds for every non-negative c (including ∞).
            Storage::Homogeneous(_) => return true,
            Storage::Dense(data) => data,
        };
        for k in 0..m {
            let row_k = &data[k * m..(k + 1) * m];
            for row_i in data.chunks_exact(m) {
                let cik = row_i[k];
                let violated = row_i
                    .iter()
                    .zip(row_k)
                    .fold(false, |acc, (&cij, &ckj)| acc | (cij > cik + ckj + tol));
                if violated {
                    return false;
                }
            }
        }
        true
    }

    /// Replaces every entry by the shortest-path distance (Floyd-Warshall
    /// metric closure). This mirrors the paper's footnote 3: the iPlane
    /// dataset is incomplete, so missing pairs are filled with minimal
    /// distances.
    ///
    /// The result is bit-identical to the textbook serial loop
    /// `for k { for i { for j { d[i][j] = min(d[i][k] + d[k][j], d[i][j]) } } }`
    /// with a strict-`<` select, but the pivots are fused in blocks of
    /// four so the matrix is streamed once per block instead of once per
    /// pivot:
    ///
    /// 1. the block's pivot rows are copied to a scratch buffer, row
    ///    `k0 + b` as it stands after pivots `k0..k0 + b` (applied to the
    ///    copy in order);
    /// 2. for each row `i`, a 4×4 prologue derives the multipliers:
    ///    `c_b` is entry `(i, k0 + b)` after the block's earlier pivots;
    /// 3. each entry of row `i` then takes the four candidates
    ///    `c_b + pivot_b[j]` in pivot order.
    ///
    /// Every entry thus sees exactly the serial loop's additions and
    /// selects, in the same order: pivot `k` never changes row `k` or
    /// column `k` (`d[k][k]` is zero), so the copies and multipliers are
    /// the values the serial loop reads. `+∞`, unreachable pairs and
    /// `-0.0` come out the same. An infinite multiplier needs no skip:
    /// `∞ + x` never wins a strict `<`, which also makes the unused slots
    /// of a partial last block no-ops. Reordering the additions instead,
    /// as an `(i, j)`-tiled Floyd–Warshall does, changes the last ulp of
    /// some entries, so it would not be the same closure.
    pub fn metric_close(&mut self) {
        let m = self.m;
        let data = match &mut self.storage {
            // Already metric: direct hop c never beats c + c.
            Storage::Homogeneous(_) => return,
            Storage::Dense(data) => data,
        };
        if m == 0 {
            return; // chunks_exact_mut(0) would panic
        }
        let mut pivots = vec![0.0; PIVOT_BLOCK * m];
        for k0 in (0..m).step_by(PIVOT_BLOCK) {
            let nb = PIVOT_BLOCK.min(m - k0);
            // Step 1: pivot row k0 + b after the block's pivots before it.
            for b in 0..nb {
                let (done, rest) = pivots.split_at_mut(b * m);
                let row = &mut rest[..m];
                row.copy_from_slice(&data[(k0 + b) * m..(k0 + b + 1) * m]);
                for (e, pivot) in done.chunks_exact(m).enumerate() {
                    let c = row[k0 + e];
                    for (d, &p) in row.iter_mut().zip(pivot) {
                        *d = relax(*d, c + p);
                    }
                }
            }
            let [p0, p1, p2, p3] = [0, 1, 2, 3].map(|b| &pivots[b * m..(b + 1) * m]);
            for row in data.chunks_exact_mut(m) {
                // Step 2: the multipliers; slots past `nb` stay infinite.
                let mut c = [f64::INFINITY; PIVOT_BLOCK];
                for b in 0..nb {
                    c[b] = row[k0 + b];
                    for e in 0..b {
                        c[b] = relax(c[b], c[e] + pivots[e * m + k0 + b]);
                    }
                }
                // Step 3: one pass over the row, four relaxations per entry.
                for ((((d, &s0), &s1), &s2), &s3) in row.iter_mut().zip(p0).zip(p1).zip(p2).zip(p3)
                {
                    let mut v = *d;
                    for (cb, s) in c.into_iter().zip([s0, s1, s2, s3]) {
                        v = relax(v, cb + s);
                    }
                    *d = v;
                }
            }
        }
    }

    /// Returns `true` when every off-diagonal entry is finite, i.e. the
    /// relay graph is complete.
    pub fn is_complete(&self) -> bool {
        match &self.storage {
            Storage::Homogeneous(c) => self.m < 2 || c.is_finite(),
            Storage::Dense(data) => data.iter().all(|v| v.is_finite()),
        }
    }
}

/// One Floyd–Warshall relaxation: `through` replaces `d` only when
/// strictly shorter. `f64::min` may return either zero on a `-0.0` /
/// `+0.0` tie; the strict `<` keeps `d`, as the serial loop does.
#[inline]
fn relax(d: f64, through: f64) -> f64 {
    if through < d {
        through
    } else {
        d
    }
}

impl PartialEq for LatencyMatrix {
    /// Entry-wise equality regardless of representation: a densified
    /// homogeneous matrix still equals its compact twin.
    fn eq(&self, other: &Self) -> bool {
        if self.m != other.m {
            return false;
        }
        match (&self.storage, &other.storage) {
            (Storage::Homogeneous(a), Storage::Homogeneous(b)) => self.m < 2 || a == b,
            (Storage::Dense(a), Storage::Dense(b)) => a == b,
            _ => (0..self.m).all(|i| (0..self.m).all(|j| self.get(i, j) == other.get(i, j))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn homogeneous_shape() {
        let c = LatencyMatrix::homogeneous(4, 20.0);
        assert_eq!(c.len(), 4);
        for i in 0..4 {
            for j in 0..4 {
                let expected = if i == j { 0.0 } else { 20.0 };
                assert_eq!(c.get(i, j), expected);
            }
        }
        assert_eq!(c.mean_latency(), 20.0);
        assert_eq!(c.max_latency(), 20.0);
        assert!(c.is_metric(1e-12));
    }

    #[test]
    fn zero_matrix() {
        let c = LatencyMatrix::zero(3);
        assert_eq!(c.mean_latency(), 0.0);
        assert!(c.is_metric(0.0));
        assert!(c.is_complete());
    }

    #[test]
    fn homogeneous_is_compact_and_densifies_on_nonuniform_write() {
        let mut c = LatencyMatrix::homogeneous(5, 20.0);
        assert_eq!(c.homogeneous_value(), Some(20.0));
        c.set(1, 2, 20.0); // uniform write: stays compact
        c.set(3, 3, 0.0); // diagonal write: stays compact
        assert_eq!(c.homogeneous_value(), Some(20.0));
        c.set(1, 2, 7.0); // breaks uniformity: densifies
        assert_eq!(c.homogeneous_value(), None);
        assert_eq!(c.get(1, 2), 7.0);
        assert_eq!(c.get(2, 1), 20.0);
        assert_eq!(c.get(4, 4), 0.0);
    }

    #[test]
    fn compact_scales_to_figure2_sizes() {
        // The dense form of this matrix would be 80 GB.
        let c = LatencyMatrix::homogeneous(100_000, 20.0);
        assert_eq!(c.len(), 100_000);
        assert_eq!(c.get(0, 99_999), 20.0);
        assert_eq!(c.get(99_999, 99_999), 0.0);
        assert_eq!(c.mean_latency(), 20.0);
        assert_eq!(c.max_latency(), 20.0);
        assert!(c.is_metric(1e-12));
        assert!(c.is_complete());
    }

    #[test]
    fn equality_is_semantic_across_representations() {
        let compact = LatencyMatrix::homogeneous(4, 20.0);
        let mut densified = LatencyMatrix::homogeneous(4, 20.0);
        densified.set(0, 1, 5.0);
        densified.set(0, 1, 20.0); // back to uniform content, dense storage
        assert_eq!(compact, densified);
        assert_eq!(densified, compact);
        let mut data = vec![20.0; 16];
        for i in 0..4 {
            data[i * 4 + i] = 0.0;
        }
        assert_eq!(compact, LatencyMatrix::from_rows(4, data));
        assert_ne!(compact, LatencyMatrix::homogeneous(4, 19.0));
        assert_ne!(compact, LatencyMatrix::homogeneous(5, 20.0));
    }

    #[test]
    #[should_panic(expected = "diagonal latency must be zero")]
    fn rejects_nonzero_diagonal() {
        LatencyMatrix::from_rows(2, vec![1.0, 2.0, 2.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        LatencyMatrix::from_rows(2, vec![0.0, -2.0, 2.0, 0.0]);
    }

    #[test]
    fn metric_close_fixes_violations() {
        // c(0,2) = 100 but 0 -> 1 -> 2 costs 3.
        let mut c =
            LatencyMatrix::from_rows(3, vec![0.0, 1.0, 100.0, 1.0, 0.0, 2.0, 100.0, 2.0, 0.0]);
        assert!(!c.is_metric(1e-12));
        c.metric_close();
        assert!(c.is_metric(1e-12));
        assert_eq!(c.get(0, 2), 3.0);
        assert_eq!(c.get(2, 0), 3.0);
    }

    #[test]
    fn metric_close_completes_infinite_entries() {
        let mut c = LatencyMatrix::homogeneous(3, 5.0);
        c.set(0, 2, f64::INFINITY);
        assert!(!c.is_complete());
        c.metric_close();
        assert!(c.is_complete());
        assert_eq!(c.get(0, 2), 10.0); // via server 1
    }

    #[test]
    fn restricted_graph_keeps_unreachable_infinite() {
        // 0 and 1 mutually reachable, 2 isolated.
        let inf = f64::INFINITY;
        let mut c = LatencyMatrix::from_rows(3, vec![0.0, 1.0, inf, 1.0, 0.0, inf, inf, inf, 0.0]);
        c.metric_close();
        assert!(c.get(0, 2).is_infinite());
        assert!(c.get(2, 1).is_infinite());
        assert_eq!(c.get(0, 1), 1.0);
    }

    /// The serial Floyd–Warshall `metric_close` ran before its pivots
    /// were fused, kept verbatim as the bit-identity oracle.
    fn reference_close(m: usize, data: &mut [f64]) {
        for k in 0..m {
            for i in 0..m {
                let cik = data[i * m + k];
                if !cik.is_finite() {
                    continue;
                }
                for j in 0..m {
                    let through = cik + data[k * m + j];
                    if through < data[i * m + j] {
                        data[i * m + j] = through;
                    }
                }
            }
        }
    }

    /// The triple loop `is_metric` ran before its row-slice form, kept
    /// verbatim as the oracle for the same answer.
    fn reference_is_metric(m: usize, data: &[f64], tol: f64) -> bool {
        for k in 0..m {
            for i in 0..m {
                let cik = data[i * m + k];
                if !cik.is_finite() {
                    continue;
                }
                for j in 0..m {
                    let ckj = data[k * m + j];
                    if ckj.is_finite() && data[i * m + j] > cik + ckj + tol {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Largest matrix side the property tests draw: 37 covers every
    /// `m % 4` and the sides below one pivot block.
    const MAX_PROP_M: usize = 37;

    /// An entry from {`+∞`, `+0.0`, `-0.0`, U(0, 100)}, the finite draw
    /// the most likely.
    fn entry() -> impl Strategy<Value = f64> {
        (0u8..8, 0.0f64..100.0).prop_map(|(kind, x)| match kind {
            0 => f64::INFINITY,
            1 => 0.0,
            2 => -0.0,
            _ => x,
        })
    }

    /// The first `m * m` of `vals` as a dense matrix with a zero diagonal.
    fn square(m: usize, mut vals: Vec<f64>) -> Vec<f64> {
        vals.truncate(m * m);
        for i in 0..m {
            vals[i * m + i] = 0.0;
        }
        vals
    }

    /// Closes `data` with both kernels and requires every entry to match
    /// bit for bit.
    fn assert_closes_like_reference(m: usize, data: Vec<f64>) {
        let mut expected = data.clone();
        reference_close(m, &mut expected);
        let mut c = LatencyMatrix::from_rows(m, data);
        c.metric_close();
        for i in 0..m {
            for j in 0..m {
                assert_eq!(
                    c.get(i, j).to_bits(),
                    expected[i * m + j].to_bits(),
                    "m={m}: entry ({i}, {j}) is {} but the serial loop gives {}",
                    c.get(i, j),
                    expected[i * m + j]
                );
            }
        }
    }

    #[test]
    fn metric_close_matches_the_serial_loop_at_m_130_with_missing_pairs() {
        let m = 130;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let data = (0..m * m)
            .map(|idx| {
                let r = next();
                if idx % (m + 1) == 0 {
                    0.0
                } else if r % 5 == 0 {
                    f64::INFINITY
                } else {
                    (r >> 11) as f64 / (1u64 << 53) as f64 * 100.0
                }
            })
            .collect();
        assert_closes_like_reference(m, data);
    }

    #[test]
    fn metric_close_handles_empty_and_single_server_matrices() {
        let mut empty = LatencyMatrix::from_rows(0, vec![]);
        empty.metric_close();
        assert!(empty.is_empty());
        let mut single = LatencyMatrix::from_rows(1, vec![0.0]);
        single.metric_close();
        assert_eq!(single.get(0, 0), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_metric_close_is_bit_identical_to_the_serial_loop(
            m in 1usize..MAX_PROP_M + 1,
            vals in prop::collection::vec(entry(), MAX_PROP_M * MAX_PROP_M)
        ) {
            assert_closes_like_reference(m, square(m, vals));
        }

        /// Entries on a 0.5 ms lattice and `tol` ∈ {0, 0.5, 1} put many
        /// triangles exactly on, or one step past, the tolerance edge.
        #[test]
        fn prop_is_metric_agrees_with_the_triple_loop(
            m in 1usize..MAX_PROP_M + 1,
            steps in prop::collection::vec(0u8..12, MAX_PROP_M * MAX_PROP_M),
            close in 0u8..2,
            bump in (0usize..MAX_PROP_M * MAX_PROP_M, 0u8..4),
            tol_steps in 0u8..3
        ) {
            let tol = f64::from(tol_steps) * 0.5;
            let vals = steps
                .into_iter()
                .map(|s| if s == 11 { f64::INFINITY } else { f64::from(s) * 0.5 })
                .collect();
            let mut c = LatencyMatrix::from_rows(m, square(m, vals));
            if close == 1 {
                c.metric_close();
                // Raise one entry to sit within a step of its tolerance.
                let (idx, by) = bump;
                let (i, j) = (idx / MAX_PROP_M % m, idx % MAX_PROP_M % m);
                if i != j {
                    let v = c.get(i, j) + tol + f64::from(by) * 0.25 - 0.25;
                    c.set(i, j, v.max(0.0));
                }
            }
            let data: Vec<f64> = (0..m * m).map(|idx| c.get(idx / m, idx % m)).collect();
            prop_assert_eq!(c.is_metric(tol), reference_is_metric(m, &data, tol));
        }
    }

    proptest! {
        #[test]
        fn prop_metric_close_is_idempotent_and_metric(
            vals in prop::collection::vec(0.1f64..100.0, 36)
        ) {
            let m = 6;
            let mut data = vals;
            for i in 0..m { data[i * m + i] = 0.0; }
            let mut c = LatencyMatrix::from_rows(m, data);
            c.metric_close();
            prop_assert!(c.is_metric(1e-9));
            let once = c.clone();
            c.metric_close();
            for i in 0..m {
                for j in 0..m {
                    prop_assert!((c.get(i, j) - once.get(i, j)).abs() < 1e-12);
                }
            }
        }

        #[test]
        fn prop_metric_close_never_increases(
            vals in prop::collection::vec(0.1f64..50.0, 25)
        ) {
            let m = 5;
            let mut data = vals;
            for i in 0..m { data[i * m + i] = 0.0; }
            let orig = LatencyMatrix::from_rows(m, data);
            let mut closed = orig.clone();
            closed.metric_close();
            for i in 0..m {
                for j in 0..m {
                    prop_assert!(closed.get(i, j) <= orig.get(i, j) + 1e-12);
                }
            }
        }
    }
}
