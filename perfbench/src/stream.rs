//! Seeded request streams. Request `i` of a stream is a pure function of
//! the workload seed and `i`, so any caller can produce any request and
//! the same seed always yields the same traffic.

/// SplitMix64: a tiny, fixed, well-mixed generator; the stream must not
/// change when some library's RNG does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.0 ^= r
            .next()
            .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Posterior nodes each request asks for.
pub const QUERIED: usize = 4;

/// How a workload's requests are drawn.
#[derive(Clone, Copy)]
pub struct StreamSpec {
    pub seed: u64,
    pub nodes: u32,
    /// Observations per request.
    pub observed: usize,
    /// Every fifth request re-issues the evidence of a request 4 to 64
    /// places earlier (the cache-hit share of `serve-warm-churn`).
    pub repeats: bool,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    pub evidence: Vec<(u32, u32)>,
    pub nodes: Vec<u32>,
}

impl StreamSpec {
    /// The absolute evidence of request `i`: `observed` distinct random
    /// nodes in random binary states, or an earlier request's set on a
    /// repeat.
    pub fn evidence(&self, mut i: u64) -> Vec<(u32, u32)> {
        loop {
            let mut rng = Rng::new(self.seed, 1, i);
            if self.repeats && i % 5 == 4 {
                let back = 4 + rng.below(61).min(i - 4);
                i -= back;
                continue;
            }
            let mut ev: Vec<(u32, u32)> = Vec::with_capacity(self.observed);
            while ev.len() < self.observed {
                let v = rng.below(u64::from(self.nodes)) as u32;
                if ev.iter().all(|&(u, _)| u != v) {
                    ev.push((v, rng.below(2) as u32));
                }
            }
            return ev;
        }
    }

    pub fn request(&self, i: u64) -> Req {
        let mut rng = Rng::new(self.seed, 2, i);
        Req {
            evidence: self.evidence(i),
            nodes: (0..QUERIED)
                .map(|_| rng.below(u64::from(self.nodes)) as u32)
                .collect(),
        }
    }

    pub fn wire(&self, i: u64) -> credo_serve::Request {
        let r = self.request(i);
        let mut req = credo_serve::Request::infer("g0", &r.evidence);
        req.nodes = r.nodes;
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_repeats_point_back() {
        let s = StreamSpec {
            seed: 7,
            nodes: 1000,
            observed: 4,
            repeats: true,
        };
        for i in 0..200 {
            assert_eq!(s.request(i), s.request(i));
        }
        let ev: Vec<_> = (0..200).map(|i| s.evidence(i)).collect();
        for i in (4..200usize).step_by(5) {
            let earlier = &ev[i.saturating_sub(64)..i - 3];
            assert!(earlier.contains(&ev[i]), "request {i} is not a repeat");
        }
    }
}
