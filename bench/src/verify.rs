//! Reply verification against a shadow model of the store.
//!
//! The model is advanced when a request is *sent*: every key is only
//! ever reachable through one FIFO socket, so send order is serve order
//! and the expected reply is known before the server sees the request.

use crate::gen::{value_bytes, Request};

/// What the reply to one in-flight request must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A SET: the one-byte acknowledgement.
    Ack,
    /// A GET (every key was written by the fill at the latest). `may_miss` allows the one-byte miss too
    /// (the store may have evicted it); a hit must carry the *latest*
    /// version's bytes either way.
    Hit {
        key: u32,
        ver: u32,
        len: u32,
        may_miss: bool,
    },
}

/// One request between its send and its reply.
pub struct InFlight {
    pub conn: u32,
    /// When the request was due to arrive, on the serving core's clock.
    pub due: u64,
    pub expect: Expect,
}

/// Last version and value length written per key.
pub struct Shadow {
    ver: Vec<u32>,
    len: Vec<u32>,
    may_miss: bool,
}

impl Shadow {
    /// The model of a store filled with version 1 of every key.
    pub fn filled(n_keys: u32, value_len: u32, may_miss: bool) -> Self {
        Self {
            ver: vec![1; n_keys as usize],
            len: vec![value_len; n_keys as usize],
            may_miss,
        }
    }

    /// Advances the model past `req`. Returns the expected reply and,
    /// for a SET, the version its value must be generated at.
    pub fn send(&mut self, req: &Request) -> (Expect, u32) {
        let k = req.key as usize;
        match req.set_len {
            Some(len) => {
                self.ver[k] += 1;
                self.len[k] = len;
                (Expect::Ack, self.ver[k])
            }
            None => (
                Expect::Hit {
                    key: req.key,
                    ver: self.ver[k],
                    len: self.len[k],
                    may_miss: self.may_miss,
                },
                self.ver[k],
            ),
        }
    }
}

/// Counts over one measured phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub gets: u64,
    pub get_hits: u64,
}

impl Tally {
    /// Checks one decrypted reply (`None`: no reply arrived, or it
    /// could not be decrypted) against its expectation.
    pub fn check(&mut self, expect: &Expect, reply: Option<&[u8]>) {
        self.attempted += 1;
        let ok = match (expect, reply) {
            (_, None) => false,
            (Expect::Ack, Some(r)) => r == [1],
            (
                Expect::Hit {
                    key,
                    ver,
                    len,
                    may_miss,
                },
                Some(r),
            ) => {
                self.gets += 1;
                if r == [0] {
                    *may_miss
                } else {
                    self.get_hits += 1;
                    r.len() == 5 + *len as usize
                        && r[0] == 1
                        && r[1..5] == len.to_le_bytes()
                        && r[5..] == value_bytes(*key, *ver, *len as usize)
                }
            }
        };
        self.failed += u64::from(!ok);
    }

    /// An op that failed with no reply to check: an arrival refused at
    /// the door, or a reply nobody was waiting for.
    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit_reply(key: u32, ver: u32, len: usize) -> Vec<u8> {
        let mut r = vec![1u8];
        r.extend_from_slice(&(len as u32).to_le_bytes());
        r.extend_from_slice(&value_bytes(key, ver, len));
        r
    }

    fn get(key: u32) -> Request {
        Request {
            conn: 0,
            key,
            set_len: None,
        }
    }

    #[test]
    fn correct_replies_pass() {
        let mut shadow = Shadow::filled(8, 64, false);
        let mut t = Tally::default();
        let (e, _) = shadow.send(&get(3));
        t.check(&e, Some(&hit_reply(3, 1, 64)));
        let set = Request {
            conn: 0,
            key: 3,
            set_len: Some(100),
        };
        let (e, ver) = shadow.send(&set);
        assert_eq!((e, ver), (Expect::Ack, 2));
        t.check(&e, Some(&[1]));
        let (e, _) = shadow.send(&get(3));
        t.check(&e, Some(&hit_reply(3, 2, 100)));
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 0,
                gets: 2,
                get_hits: 2
            }
        );
    }

    #[test]
    fn flipped_byte_dropped_reply_and_stale_value_fail() {
        let mut shadow = Shadow::filled(8, 64, false);
        let mut t = Tally::default();
        let (e, _) = shadow.send(&get(1));
        let mut flipped = hit_reply(1, 1, 64);
        flipped[20] ^= 0x40;
        t.check(&e, Some(&flipped));
        assert_eq!(t.failed, 1, "flipped byte");
        t.check(&e, None);
        assert_eq!(t.failed, 2, "dropped reply");
        shadow.send(&Request {
            conn: 0,
            key: 1,
            set_len: Some(64),
        });
        let (e, _) = shadow.send(&get(1));
        t.check(&e, Some(&hit_reply(1, 1, 64)));
        assert_eq!(t.failed, 3, "stale value");
        t.check(&e, Some(&[0]));
        assert_eq!(t.failed, 4, "miss where the store cannot evict");
        t.fail();
        assert_eq!((t.attempted, t.failed), (5, 5));
    }

    #[test]
    fn an_evicting_store_may_miss_but_not_serve_stale_bytes() {
        let mut shadow = Shadow::filled(4, 128, true);
        let mut t = Tally::default();
        shadow.send(&Request {
            conn: 0,
            key: 2,
            set_len: Some(1024),
        });
        let (e, _) = shadow.send(&get(2));
        t.check(&e, Some(&[0]));
        assert_eq!((t.failed, t.gets, t.get_hits), (0, 1, 0));
        t.check(&e, Some(&hit_reply(2, 1, 128)));
        assert_eq!(t.failed, 1, "stale value after an overwrite");
    }
}
