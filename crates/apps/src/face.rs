//! The face-verification server (paper §5.2).
//!
//! A biometric identity-checking server in the style of border-control
//! kiosks: it stores a histogram of local binary patterns (LBP, the
//! paper's \[6\]) per enrolled identity, and verifies a claimed
//! identity by comparing the stored histogram against one computed
//! from the image in the request (chi-square distance).
//!
//! The FERET dataset is not available, so enrollment uses seeded
//! procedural 512×512 grayscale images (smooth sinusoidal textures
//! unique per identity); a genuine verification attempt presents a
//! noisy re-capture of the enrolled image, an impostor presents a
//! different identity's image. The systems behaviour the paper
//! measures — one large (~232 KiB) secure-memory read plus fixed CPU
//! work per request — is preserved exactly.

use eleos_enclave::thread::ThreadCtx;
use eleos_sim::stats::Stats;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::kvs::MALFORMED_REPLY;
use crate::space::DataSpace;

/// LBP histogram block side in pixels.
pub const BLOCK: usize = 16;
/// Histogram bins per block: 58 uniform patterns + 1 catch-all.
pub const BINS: usize = 59;

/// Cycles of LBP arithmetic per pixel (neighborhood compare + bin
/// update, at AVX2 rates — LBP vectorizes well).
const LBP_CYCLES_PER_PIXEL: u64 = 6;
/// Cycles per histogram bin for the chi-square comparison.
const CHI2_CYCLES_PER_BIN: u64 = 4;

/// Histogram size in bytes for a `side`×`side` image.
#[must_use]
pub fn hist_bytes(side: usize) -> usize {
    let blocks = (side / BLOCK) * (side / BLOCK);
    blocks * BINS * 4
}

/// The uniform-LBP code mapping: 256 codes → 59 bins.
fn uniform_map() -> [u8; 256] {
    let mut map = [0u8; 256];
    let mut next = 1u8;
    for (code, slot) in map.iter_mut().enumerate() {
        let transitions = (0..8)
            .filter(|&i| {
                let a = (code >> i) & 1;
                let b = (code >> ((i + 1) % 8)) & 1;
                a != b
            })
            .count();
        if transitions <= 2 {
            *slot = next;
            next += 1;
        } else {
            *slot = 0; // non-uniform catch-all bin
        }
    }
    debug_assert_eq!(next as usize, BINS);
    map
}

/// Computes the blocked uniform-LBP histogram of a grayscale image.
///
/// # Panics
/// Panics if the image is not `side`×`side` or `side` is not a
/// multiple of [`BLOCK`].
#[must_use]
pub fn lbp_histogram(image: &[u8], side: usize) -> Vec<u32> {
    assert_eq!(image.len(), side * side, "image size mismatch");
    assert_eq!(side % BLOCK, 0);
    let map = uniform_map();
    let blocks_per_row = side / BLOCK;
    let mut hist = vec![0u32; blocks_per_row * blocks_per_row * BINS];
    for y in 1..side - 1 {
        for x in 1..side - 1 {
            let c = image[y * side + x];
            let mut code = 0u8;
            let neigh = [
                image[(y - 1) * side + (x - 1)],
                image[(y - 1) * side + x],
                image[(y - 1) * side + (x + 1)],
                image[y * side + (x + 1)],
                image[(y + 1) * side + (x + 1)],
                image[(y + 1) * side + x],
                image[(y + 1) * side + (x - 1)],
                image[y * side + (x - 1)],
            ];
            for (i, &n) in neigh.iter().enumerate() {
                if n >= c {
                    code |= 1 << i;
                }
            }
            let block = (y / BLOCK) * blocks_per_row + (x / BLOCK);
            hist[block * BINS + map[code as usize] as usize] += 1;
        }
    }
    hist
}

/// Chi-square distance between two histograms.
#[must_use]
pub fn chi_square(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let (x, y) = (x as f64, y as f64);
            if x + y > 0.0 {
                (x - y) * (x - y) / (x + y)
            } else {
                0.0
            }
        })
        .sum()
}

/// Generates identity `id`'s reference image: a smooth, identity-unique
/// sinusoidal texture.
#[must_use]
pub fn synth_image(id: u64, side: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(id.wrapping_mul(0x9e37_79b9));
    // A few random plane waves per identity.
    let waves: Vec<(f64, f64, f64, f64)> = (0..4)
        .map(|_| {
            (
                rng.random_range(0.01..0.12),
                rng.random_range(0.01..0.12),
                rng.random_range(0.0..std::f64::consts::TAU),
                rng.random_range(20.0..60.0),
            )
        })
        .collect();
    let mut img = vec![0u8; side * side];
    for y in 0..side {
        for x in 0..side {
            let mut v = 128.0;
            for &(fx, fy, phase, amp) in &waves {
                v += amp * (fx * x as f64 + fy * y as f64 + phase).sin();
            }
            img[y * side + x] = v.clamp(0.0, 255.0) as u8;
        }
    }
    img
}

/// A noisy re-capture of `id`'s face (genuine verification attempt).
#[must_use]
pub fn synth_capture(id: u64, side: usize, capture_seed: u64) -> Vec<u8> {
    let mut img = synth_image(id, side);
    let mut rng = StdRng::seed_from_u64(id ^ capture_seed.wrapping_mul(0x2545_f491));
    for p in img.iter_mut() {
        let noise: i16 = rng.random_range(-2..=2);
        *p = (*p as i16 + noise).clamp(0, 255) as u8;
    }
    img
}

/// The enrolled-identity database: an open-addressing table of
/// identity → histogram blob, all in the secure [`DataSpace`].
pub struct FaceDb {
    space: DataSpace,
    side: usize,
    slots: u64,
    table: u64,
    entries: u64,
}

impl FaceDb {
    /// Creates a database with room for `capacity` identities.
    #[must_use]
    pub fn new(space: DataSpace, side: usize, capacity: u64) -> Self {
        let slots = (capacity * 2).next_power_of_two();
        let table = space.alloc((slots * 16) as usize);
        Self {
            space,
            side,
            slots,
            table,
            entries: 0,
        }
    }

    /// Zeroes the table.
    pub fn init(&self, ctx: &mut ThreadCtx) {
        let zeros = vec![0u8; 4096];
        let len = self.slots * 16;
        let mut off = 0u64;
        while off < len {
            let n = ((len - off) as usize).min(4096);
            self.space.write(ctx, self.table + off, &zeros[..n]);
            off += n as u64;
        }
    }

    /// Number of enrolled identities.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// Whether the database is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Bytes of histogram data stored.
    #[must_use]
    pub fn data_bytes(&self) -> u64 {
        self.entries * hist_bytes(self.side) as u64
    }

    /// Enrolls identity `id` (nonzero) with its reference histogram.
    pub fn enroll(&mut self, ctx: &mut ThreadCtx, id: u64, hist: &[u32]) {
        assert_ne!(id, 0);
        assert_eq!(hist.len() * 4, hist_bytes(self.side));
        let blob = self.space.alloc(hist_bytes(self.side));
        let bytes: Vec<u8> = hist.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.space.write(ctx, blob, &bytes);
        let mut slot = crate::param_server::hash64(id) & (self.slots - 1);
        loop {
            let addr = self.table + slot * 16;
            let k = self.space.read_u64(ctx, addr);
            if k == 0 {
                assert!(self.entries * 2 < self.slots, "face db over capacity");
                self.space.write_u64(ctx, addr, id);
                self.space.write_u64(ctx, addr + 8, blob);
                self.entries += 1;
                return;
            }
            assert_ne!(k, id, "identity already enrolled");
            slot = (slot + 1) & (self.slots - 1);
        }
    }

    /// Fetches `id`'s stored histogram — the request's single large
    /// secure read.
    #[must_use]
    pub fn fetch(&self, ctx: &mut ThreadCtx, id: u64) -> Option<Vec<u32>> {
        let mut slot = crate::param_server::hash64(id) & (self.slots - 1);
        loop {
            let addr = self.table + slot * 16;
            let k = self.space.read_u64(ctx, addr);
            if k == id {
                let blob = self.space.read_u64(ctx, addr + 8);
                let mut bytes = vec![0u8; hist_bytes(self.side)];
                self.space.read(ctx, blob, &mut bytes);
                return Some(
                    bytes
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
                        .collect(),
                );
            }
            if k == 0 {
                return None;
            }
            slot = (slot + 1) & (self.slots - 1);
        }
    }
}

/// The verification server.
pub struct FaceServer {
    /// The enrolled database.
    pub db: FaceDb,
    /// Accept when the chi-square distance is below this.
    pub threshold: f64,
    accepted: u64,
    rejected: u64,
}

impl FaceServer {
    /// Wraps a database with a decision threshold.
    #[must_use]
    pub fn new(db: FaceDb, threshold: f64) -> Self {
        Self {
            db,
            threshold,
            accepted: 0,
            rejected: 0,
        }
    }

    /// `(accepted, rejected)` decision counts.
    #[must_use]
    pub fn decisions(&self) -> (u64, u64) {
        (self.accepted, self.rejected)
    }

    /// Verifies a claimed identity against a presented image,
    /// returning the distance score (lower = more similar), or `None`
    /// for an unknown identity.
    pub fn verify(&mut self, ctx: &mut ThreadCtx, id: u64, image: &[u8]) -> Option<(f64, bool)> {
        let side = self.db.side;
        // LBP of the presented image: real compute, charged at
        // hardware-plausible rates.
        let hist = lbp_histogram(image, side);
        ctx.compute((side * side) as u64 * LBP_CYCLES_PER_PIXEL);
        let stored = self.db.fetch(ctx, id)?;
        let score = chi_square(&hist, &stored);
        ctx.compute(stored.len() as u64 * CHI2_CYCLES_PER_BIN);
        let ok = score < self.threshold;
        if ok {
            self.accepted += 1;
        } else {
            self.rejected += 1;
        }
        Some((score, ok))
    }

    /// Verifies one decrypted request, returning the response
    /// plaintext — the closure a serve loop
    /// ([`ServerIo::serve`](crate::io::ServerIo::serve)) runs per
    /// request.
    ///
    /// Request plaintext: `[id u64][side u32][pixels]`. Response:
    /// `[1]` accepted / `[0]` rejected / `[2]` unknown id. The body
    /// comes from a client, attested but not trusted: one that is not
    /// exactly `[id u64][side u32]` plus a `side`×`side` image at the
    /// database's resolution is answered [`MALFORMED_REPLY`] and
    /// counted in `malformed_requests`, and the server keeps serving.
    pub fn process(&mut self, ctx: &mut ThreadCtx, plain: &[u8]) -> Vec<u8> {
        let side = self.db.side;
        let request = plain.split_first_chunk::<8>().and_then(|(id, rest)| {
            let (claimed, image) = rest.split_first_chunk::<4>()?;
            (u32::from_le_bytes(*claimed) as usize == side && image.len() == side * side)
                .then(|| (u64::from_le_bytes(*id), image))
        });
        let Some((id, image)) = request else {
            Stats::bump(&ctx.machine.stats.malformed_requests);
            return vec![MALFORMED_REPLY];
        };
        // (`verify` asserts the image size `request` just checked.)
        vec![match self.verify(ctx, id, image) {
            Some((_, true)) => 1u8,
            Some((_, false)) => 0u8,
            None => 2u8,
        }]
    }
}

/// Calibrates a decision threshold for a synthetic population:
/// samples genuine (noisy re-capture) and impostor (other identity)
/// scores for `n_probe` identities and returns the midpoint between
/// the worst genuine and best impostor score — an equal-error-rate
/// style operating point — together with the two score distributions'
/// extremes `(threshold, max_genuine, min_impostor)`.
#[must_use]
pub fn calibrate_threshold(
    ctx: &mut ThreadCtx,
    db: &FaceDb,
    side: usize,
    n_probe: u64,
    n_ids: u64,
) -> (f64, f64, f64) {
    assert!(n_ids >= 2);
    let mut max_genuine = f64::MIN;
    let mut min_impostor = f64::MAX;
    for i in 0..n_probe {
        let id = 1 + i % n_ids;
        let enrolled = db.fetch(ctx, id).expect("enrolled identity");
        let genuine = chi_square(
            &lbp_histogram(&synth_capture(id, side, 10_000 + i), side),
            &enrolled,
        );
        let other = 1 + (id % n_ids);
        let impostor = chi_square(&lbp_histogram(&synth_image(other, side), side), &enrolled);
        max_genuine = max_genuine.max(genuine);
        min_impostor = min_impostor.min(impostor);
    }
    (
        (max_genuine + min_impostor) / 2.0,
        max_genuine,
        min_impostor,
    )
}

/// Builds a verification request plaintext.
#[must_use]
pub fn build_verify_request(id: u64, side: usize, image: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(12 + image.len());
    p.extend_from_slice(&id.to_le_bytes());
    p.extend_from_slice(&(side as u32).to_le_bytes());
    p.extend_from_slice(image);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use eleos_enclave::machine::{MachineConfig, SgxMachine};

    const SIDE: usize = 64; // small images keep unit tests fast

    #[test]
    fn histogram_shape_and_mass() {
        let img = synth_image(1, SIDE);
        let h = lbp_histogram(&img, SIDE);
        assert_eq!(h.len() * 4, hist_bytes(SIDE));
        let mass: u64 = h.iter().map(|&v| v as u64).sum();
        assert_eq!(
            mass,
            ((SIDE - 2) * (SIDE - 2)) as u64,
            "one code per interior pixel"
        );
    }

    #[test]
    fn uniform_map_has_59_bins() {
        let map = uniform_map();
        let max = *map.iter().max().unwrap();
        assert_eq!(max as usize, BINS - 1);
    }

    #[test]
    fn genuine_beats_impostor() {
        let enrolled = lbp_histogram(&synth_image(1, SIDE), SIDE);
        let genuine = lbp_histogram(&synth_capture(1, SIDE, 99), SIDE);
        let impostor = lbp_histogram(&synth_image(2, SIDE), SIDE);
        let d_genuine = chi_square(&enrolled, &genuine);
        let d_impostor = chi_square(&enrolled, &impostor);
        assert!(
            d_genuine < d_impostor,
            "genuine {d_genuine} must score below impostor {d_impostor}"
        );
    }

    #[test]
    fn full_verification_flow() {
        let m = SgxMachine::new(MachineConfig::scaled(8));
        let e = m.driver.create_enclave(&m, 16 << 20);
        let mut t = eleos_enclave::thread::ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let mut db = FaceDb::new(DataSpace::Enclave(Arc::clone(&e)), SIDE, 16);
        db.init(&mut t);
        for id in 1..=8u64 {
            db.enroll(&mut t, id, &lbp_histogram(&synth_image(id, SIDE), SIDE));
        }
        assert_eq!(db.len(), 8);
        // Pick the threshold midway between genuine and impostor
        // scores for identity 3.
        let enrolled = db.fetch(&mut t, 3).unwrap();
        let genuine = chi_square(&lbp_histogram(&synth_capture(3, SIDE, 7), SIDE), &enrolled);
        let impostor = chi_square(&lbp_histogram(&synth_image(5, SIDE), SIDE), &enrolled);
        let mut srv = FaceServer::new(db, (genuine + impostor) / 2.0);

        let (_, ok) = srv.verify(&mut t, 3, &synth_capture(3, SIDE, 8)).unwrap();
        assert!(ok, "genuine capture accepted");
        let (_, ok) = srv.verify(&mut t, 3, &synth_image(5, SIDE)).unwrap();
        assert!(!ok, "impostor rejected");
        assert!(srv.verify(&mut t, 99, &synth_image(1, SIDE)).is_none());
        assert_eq!(srv.decisions(), (1, 1));
        t.exit();
    }

    #[test]
    fn calibrated_threshold_separates_population() {
        // Larger images than the other unit tests: LBP needs texture
        // to discriminate a whole population.
        let side = 128;
        let m = SgxMachine::new(MachineConfig::scaled(8));
        let e = m.driver.create_enclave(&m, 64 << 20);
        let mut t = eleos_enclave::thread::ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let mut db = FaceDb::new(DataSpace::Enclave(Arc::clone(&e)), side, 16);
        db.init(&mut t);
        for id in 1..=8u64 {
            db.enroll(&mut t, id, &lbp_histogram(&synth_image(id, side), side));
        }
        let (threshold, max_genuine, min_impostor) = calibrate_threshold(&mut t, &db, side, 8, 8);
        assert!(
            max_genuine < min_impostor,
            "synthetic population must separate: {max_genuine} vs {min_impostor}"
        );
        // The calibrated server classifies fresh probes correctly.
        let mut srv = FaceServer::new(db, threshold);
        for id in 1..=8u64 {
            let (_, ok) = srv
                .verify(&mut t, id, &synth_capture(id, side, 555 + id))
                .unwrap();
            assert!(ok, "genuine id {id}");
            let other = 1 + (id % 8);
            let (_, ok) = srv.verify(&mut t, id, &synth_image(other, side)).unwrap();
            assert!(!ok, "impostor against id {id}");
        }
        t.exit();
    }

    #[test]
    fn unknown_identity_fetch_is_none() {
        let m = SgxMachine::new(MachineConfig::scaled(8));
        let e = m.driver.create_enclave(&m, 8 << 20);
        let mut t = eleos_enclave::thread::ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let mut db = FaceDb::new(DataSpace::Enclave(Arc::clone(&e)), SIDE, 4);
        db.init(&mut t);
        db.enroll(&mut t, 1, &lbp_histogram(&synth_image(1, SIDE), SIDE));
        assert!(db.fetch(&mut t, 2).is_none());
        t.exit();
    }
}
