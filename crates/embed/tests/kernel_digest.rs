//! Every kernel of every model, pinned to its bits.
//!
//! For each [`ModelKind`] at dims 3, 8 and 13 on seeded rows, one FNV-1a
//! digest folds the bits of `score` and `score_fwd`, `grad` into zeroed
//! buffers, `grad_bwd` onto buffers that already hold a gradient (twice from
//! one forward, as a ranking pair's positive is differentiated once per
//! negative), and both block kernels. The constant was recorded before the
//! trait's kernels were reduced to `score_fwd` / `grad_bwd`; any change to a
//! float operation of any kernel moves it.

use hetkg_embed::{EmbeddingTable, ModelKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const DIGEST: u64 = 0x39e0_1341_34ee_9b58;

struct Fnv(u64);

impl Fnv {
    fn fold(&mut self, xs: &[f32]) {
        for x in xs {
            for b in x.to_bits().to_le_bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

fn row(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.random_range(-0.9..0.9)).collect()
}

#[test]
fn every_kernel_of_every_model_keeps_its_bits() {
    let mut rng = StdRng::seed_from_u64(35);
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    let mut fwd = Vec::new();
    for kind in ModelKind::all() {
        for dim in [3usize, 8, 13] {
            let m = kind.build(dim);
            let (de, dr) = (m.entity_dim(), m.relation_dim());
            for _ in 0..4 {
                let (h, r, t) = (row(&mut rng, de), row(&mut rng, dr), row(&mut rng, de));
                let (h2, t2) = (row(&mut rng, de), row(&mut rng, de));

                let s = m.score(&h, &r, &t);
                let s_fwd = m.score_fwd(&h, &r, &t, &mut fwd);
                fnv.fold(&[s, s_fwd]);

                let (mut gh, mut gr, mut gt) = (vec![0.0; de], vec![0.0; dr], vec![0.0; de]);
                m.grad(&h2, &r, &t2, -0.75, &mut gh, &mut gr, &mut gt);
                fnv.fold(&gh);
                fnv.fold(&gr);
                fnv.fold(&gt);

                m.score_fwd(&h, &r, &t, &mut fwd);
                for dscore in [1.25, -0.5] {
                    m.grad_bwd(&h, &r, &t, dscore, &mut fwd, &mut gh, &mut gr, &mut gt);
                    fnv.fold(&gh);
                    fnv.fold(&gr);
                    fnv.fold(&gt);
                }
            }

            let n = 17;
            let mut ents = EmbeddingTable::zeros(n, de);
            for i in 0..n {
                ents.row_mut(i).copy_from_slice(&row(&mut rng, de));
            }
            let (fixed, rel) = (row(&mut rng, de), row(&mut rng, dr));
            let ids: Vec<u32> = (0..n as u32).rev().chain([3, 3, 0]).collect();
            let mut out = vec![0.0f32; ids.len()];
            let mut scratch = Vec::new();
            m.score_tails_block(&fixed, &rel, &ents, &ids, &mut out, &mut scratch);
            fnv.fold(&out);
            m.score_heads_block(&ents, &ids, &rel, &fixed, &mut out, &mut scratch);
            fnv.fold(&out);
        }
    }
    assert_eq!(fnv.0, DIGEST, "digest {:#018x}", fnv.0);
}
