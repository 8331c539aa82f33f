//! Generated inputs. Everything a workload feeds the TM is a pure
//! function of `(--seed, client index)`: one xorshift stream per client,
//! drawn on demand by the closed loop, so the program under test sees
//! only these operations and two runs with one seed replay one stream.

/// (sender, receiver) pairs per Bank `transfer` (the paper's value).
pub const PAIRS: usize = 10;
/// Reads per `zipf-hot` transaction.
pub const ZIPF_READS: usize = 8;

pub struct Xorshift(u64);

impl Xorshift {
    /// Stream for `client` under `seed` (splitmix64 of both, so nearby
    /// seeds and clients give unrelated streams).
    pub fn for_client(seed: u64, client: usize) -> Xorshift {
        let mut z = seed
            .wrapping_add((client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Xorshift((z ^ (z >> 31)) | 1)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Cumulative-weight Zipf(θ) sampler over ranks `0..n` (rank 0 hottest).
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|rank| {
                acc += 1.0 / ((rank + 1) as f64).powf(theta);
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Xorshift) -> usize {
        let total = *self.cumulative.last().expect("zipf over an empty domain");
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// One generated operation. `Copy`, so a future body can own its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read boxes `a` and `b`, write each back plus one.
    Incr2 { a: u16, b: u16 },
    /// Bank `transfer`: move `amount` along every pair.
    Transfer {
        pairs: [(u16, u16); PAIRS],
        amount: i64,
    },
    /// Bank `getTotalAmount`: read every account.
    Total,
    /// Read `reads`, spin, then write `reads[0]` and `reads[1]` plus one.
    Zipf { reads: [u16; ZIPF_READS] },
}

/// Which operations a workload draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// `Incr2` uniform over the boxes.
    Short,
    /// 80 % `Transfer`, 20 % `Total`.
    Bank,
    /// `Zipf` with θ = 0.99.
    ZipfHot,
}

pub struct OpGen {
    rng: Xorshift,
    mix: Mix,
    boxes: usize,
    zipf: Option<Zipf>,
}

impl OpGen {
    pub fn new(mix: Mix, boxes: usize, seed: u64, client: usize) -> OpGen {
        assert!(
            (2..=u16::MAX as usize + 1).contains(&boxes),
            "box indices are u16"
        );
        OpGen {
            rng: Xorshift::for_client(seed, client),
            mix,
            boxes,
            zipf: (mix == Mix::ZipfHot).then(|| Zipf::new(boxes, 0.99)),
        }
    }

    /// Two distinct uniform box indices.
    fn distinct_pair(&mut self) -> (u16, u16) {
        let a = self.rng.below(self.boxes);
        let mut b = self.rng.below(self.boxes);
        if b == a {
            b = (b + 1) % self.boxes;
        }
        (a as u16, b as u16)
    }

    pub fn next_op(&mut self) -> Op {
        match self.mix {
            Mix::Short => {
                let (a, b) = self.distinct_pair();
                Op::Incr2 { a, b }
            }
            Mix::Bank => {
                if self.rng.below(100) < 80 {
                    let mut pairs = [(0, 0); PAIRS];
                    for p in &mut pairs {
                        *p = self.distinct_pair();
                    }
                    Op::Transfer {
                        pairs,
                        amount: 1 + self.rng.below(5) as i64,
                    }
                } else {
                    Op::Total
                }
            }
            Mix::ZipfHot => {
                let zipf = self.zipf.as_ref().expect("built with the mix");
                let mut reads = [0u16; ZIPF_READS];
                for r in &mut reads {
                    *r = zipf.sample(&mut self.rng) as u16;
                }
                // The two written boxes must differ, or a transaction
                // would add 1 instead of 2 to the audited sum.
                while reads[1] == reads[0] {
                    reads[1] = zipf.sample(&mut self.rng) as u16;
                }
                Op::Zipf { reads }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(mix: Mix, boxes: usize, seed: u64, client: usize) -> Vec<u8> {
        let mut g = OpGen::new(mix, boxes, seed, client);
        (0..2_000)
            .flat_map(|_| format!("{:?};", g.next_op()).into_bytes())
            .collect()
    }

    #[test]
    fn same_seed_same_bytes() {
        for (mix, boxes) in [(Mix::Short, 4096), (Mix::Bank, 1000), (Mix::ZipfHot, 1024)] {
            assert_eq!(stream(mix, boxes, 7, 0), stream(mix, boxes, 7, 0));
            assert_ne!(stream(mix, boxes, 7, 0), stream(mix, boxes, 8, 0));
            assert_ne!(stream(mix, boxes, 7, 0), stream(mix, boxes, 7, 1));
        }
    }

    #[test]
    fn operations_are_well_formed() {
        let mut g = OpGen::new(Mix::Bank, 1000, 3, 0);
        let mut transfers = 0;
        for _ in 0..10_000 {
            if let Op::Transfer { pairs, amount } = g.next_op() {
                transfers += 1;
                assert!((1..=5).contains(&amount));
                assert!(pairs.iter().all(|&(f, t)| f != t && f < 1000 && t < 1000));
            }
        }
        assert!((7_700..8_300).contains(&transfers), "{transfers} of 10000");
        let mut g = OpGen::new(Mix::ZipfHot, 1024, 3, 0);
        let mut hot = 0;
        for _ in 0..10_000 {
            let Op::Zipf { reads } = g.next_op() else {
                panic!("zipf mix")
            };
            assert_ne!(reads[0], reads[1]);
            hot += reads.iter().filter(|&&r| r == 0).count();
        }
        // Rank 0 of Zipf(0.99) over 1,024 ranks carries ~13 % of the mass.
        assert!((8_000..13_000).contains(&hot), "{hot} of 80000");
    }
}
