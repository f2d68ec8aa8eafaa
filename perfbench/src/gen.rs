//! Seeded input generation. Everything a run sends is a pure function of
//! `--seed` and the message's sequence number, so the sender and the
//! receiver (which re-derives the expected output) agree without sharing
//! state, and the same seed replays the same inputs.

use mobigate::mime::MimeMessage;
use mobigate::streamlets::workload::MessageMix;

/// Header carrying the benchmark's per-message sequence number.
pub const SEQ_HEADER: &str = "X-Bench-Seq";

/// SplitMix64: a stateless 64-bit mixer.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` for item `i` of draw stream `stream`.
pub fn unit(seed: u64, stream: u64, i: u64) -> f64 {
    let h = mix64(seed ^ mix64(stream.wrapping_mul(0xA24B_AED4_963E_E407) ^ mix64(i)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Draw streams, so different choices of one message are independent.
pub mod streams {
    /// Which session a message goes to.
    pub const SESSION: u64 = 1;
    /// Which pooled input a message carries.
    pub const PICK: u64 = 2;
    /// Image-or-text roll of the web mix.
    pub const KIND: u64 = 3;
    /// Bytes of a generated body.
    pub const BODY: u64 = 4;
}

/// Zipf(`s`) over `n` ranks, sampled by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over ranks `0..n` with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank a uniform draw `u` in `[0, 1)` maps to.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A printable body of `len` bytes for sequence number `seq`.
pub fn body(seed: u64, seq: u64, len: usize) -> Vec<u8> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 ";
    let mut out = Vec::with_capacity(len);
    let mut h = mix64(seed ^ mix64(streams::BODY ^ mix64(seq)));
    for i in 0..len {
        if i % 8 == 0 && i > 0 {
            h = mix64(h);
        }
        out.push(ALPHABET[(h >> ((i % 8) * 8)) as usize % ALPHABET.len()]);
    }
    out
}

/// Serializes a message with the sequence header in front of its own
/// headers — the wire form a wired sender hands to `post_wire`.
pub fn wire_with_seq(seq: u64, base_wire: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(SEQ_HEADER.as_bytes());
    out.extend_from_slice(b": ");
    out.extend_from_slice(seq.to_string().as_bytes());
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(base_wire);
}

/// The parts of a wire frame the output checks read, found without
/// building a `MimeMessage` (the receiver thread checks every output, so
/// its cost is kept off the cores the gateway runs on).
#[derive(Debug, Clone, Copy)]
pub struct WireView<'a> {
    /// `X-Bench-Seq`.
    pub seq: Option<u64>,
    /// `Content-Session`.
    pub session: Option<&'a str>,
    /// `Content-Type`.
    pub content_type: Option<&'a str>,
    /// Everything after the blank line.
    pub body: &'a [u8],
}

impl<'a> WireView<'a> {
    /// Splits `frame` into headers and body; `None` without a blank line.
    pub fn parse(frame: &'a [u8]) -> Option<WireView<'a>> {
        let head_end = frame.windows(4).position(|w| w == b"\r\n\r\n")?;
        let mut v = WireView {
            seq: None,
            session: None,
            content_type: None,
            body: &frame[head_end + 4..],
        };
        for line in frame[..head_end].split(|&b| b == b'\n') {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            let Some(colon) = line.iter().position(|&b| b == b':') else {
                continue;
            };
            let value = std::str::from_utf8(&line[colon + 1..]).ok()?.trim();
            match &line[..colon] {
                b"X-Bench-Seq" => v.seq = value.parse().ok(),
                b"Content-Session" => v.session = Some(value),
                b"Content-Type" => v.content_type = Some(value),
                _ => {}
            }
        }
        Some(v)
    }
}

/// Reads the sequence number from a wire frame's header block.
pub fn seq_of_wire(frame: &[u8]) -> Option<u64> {
    WireView::parse(frame)?.seq
}

/// The sequence number of a parsed message.
pub fn seq_of(msg: &MimeMessage) -> Option<u64> {
    msg.headers.get(SEQ_HEADER)?.trim().parse().ok()
}

/// The web mix's input pool: equal numbers of `MessageMix` images and
/// texts, pre-serialized. Each sent message picks its class with a fair
/// coin and then an entry of that class, so the image share of a run is
/// binomial in the run length rather than fixed by the pool.
pub struct WebPool {
    /// Wire forms of the GIF-like images (128×128).
    pub images: Vec<Vec<u8>>,
    /// Wire forms of the 8 KiB texts.
    pub texts: Vec<Vec<u8>>,
    /// Original text bodies, for the byte-identity check at the client.
    pub text_bodies: Vec<Vec<u8>>,
    seed: u64,
}

/// Image side of the web mix (§7.5: 128×128 GIF-like images).
pub const IMAGE_SIDE: u16 = 128;
/// Text size of the web mix (§7.5: 8 KiB texts).
pub const TEXT_LEN: usize = 8 * 1024;

impl WebPool {
    /// Draws `per_class` images and texts from a seeded `MessageMix`.
    pub fn new(seed: u64, per_class: usize) -> Self {
        let mut images = Vec::new();
        let mut texts = Vec::new();
        let mut text_bodies = Vec::new();
        let mix = MessageMix::new(seed, 50, IMAGE_SIDE, TEXT_LEN);
        for m in mix {
            if images.len() == per_class && texts.len() == per_class {
                break;
            }
            let is_image = m.content_type().top == "image";
            if is_image && images.len() < per_class {
                images.push(m.to_wire().to_vec());
            } else if !is_image && texts.len() < per_class {
                text_bodies.push(m.body.to_vec());
                texts.push(m.to_wire().to_vec());
            }
        }
        WebPool {
            images,
            texts,
            text_bodies,
            seed,
        }
    }

    /// What message `seq` carries: `(is_image, pool index)`.
    pub fn pick(&self, seq: u64) -> (bool, usize) {
        let is_image = unit(self.seed, streams::KIND, seq) < 0.5;
        let n = if is_image {
            self.images.len()
        } else {
            self.texts.len()
        };
        let idx = (unit(self.seed, streams::PICK, seq) * n as f64) as usize;
        (is_image, idx.min(n - 1))
    }

    /// The wire form message `seq` is built from (without its sequence
    /// header).
    pub fn base_wire(&self, seq: u64) -> &[u8] {
        match self.pick(seq) {
            (true, i) => &self.images[i],
            (false, i) => &self.texts[i],
        }
    }
}

/// Writes a `text/plain` wire message carrying `seq` into `out` (the
/// sender reuses one buffer, so building a message costs a few copies).
pub fn text_wire(seq: u64, body: &[u8], out: &mut Vec<u8>) {
    use std::io::Write as _;
    out.clear();
    // Writing into a Vec cannot fail.
    let _ = write!(
        out,
        "{SEQ_HEADER}: {seq}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = WebPool::new(7, 8);
        let b = WebPool::new(7, 8);
        assert_eq!(a.images, b.images);
        assert_eq!(a.texts, b.texts);
        for seq in 0..200 {
            assert_eq!(a.pick(seq), b.pick(seq));
            assert_eq!(body(7, seq, 64), body(7, seq, 64));
            assert_eq!(
                unit(7, streams::SESSION, seq),
                unit(7, streams::SESSION, seq)
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WebPool::new(1, 4);
        let b = WebPool::new(2, 4);
        assert_ne!(a.texts, b.texts);
        assert_ne!(body(1, 0, 64), body(2, 0, 64));
    }

    #[test]
    fn web_pool_is_balanced_and_mixed() {
        let p = WebPool::new(3, 16);
        assert_eq!(p.images.len(), 16);
        assert_eq!(p.texts.len(), 16);
        let images = (0..4000).filter(|&s| p.pick(s).0).count();
        assert!((1800..2200).contains(&images), "image share {images}/4000");
    }

    #[test]
    fn zipf_ranks_are_skewed_and_in_range() {
        let z = Zipf::new(1000, 1.0);
        let mut hits = vec![0u32; 1000];
        for i in 0..20_000 {
            hits[z.rank(unit(5, streams::SESSION, i))] += 1;
        }
        assert!(hits[0] > hits[10] && hits[10] > hits[500]);
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999_999), 999);
    }

    #[test]
    fn seq_header_round_trips_through_wire_and_parse() {
        let mut out = Vec::new();
        text_wire(42, &body(9, 42, 64), &mut out);
        assert_eq!(seq_of_wire(&out), Some(42));
        let view = WireView::parse(&out).unwrap();
        assert_eq!(view.content_type, Some("text/plain"));
        assert_eq!(view.body, &body(9, 42, 64)[..]);
        let msg = MimeMessage::from_wire(&out).unwrap();
        assert_eq!(seq_of(&msg), Some(42));
        assert_eq!(&msg.body[..], &body(9, 42, 64)[..]);
    }
}
