//! Execution flight recorder: deterministic trace capture.
//!
//! A [`Recorder`] rides inside the VM's execution context and observes the
//! stream of **heap effects** — stores into the heap region, allocator
//! calls, bulk copies/fills, and program output. Every `cadence` effects it
//! snapshots a [`Checkpoint`]: FNV-1a-64 checksums of the register file,
//! the heap region, and the output produced so far, all computed over
//! little-endian byte images so the hashes are endianness-independent.
//!
//! Checkpoints are indexed by **effect count**, not by retired-instruction
//! count. The optimizer contract (see `passes/mod.rs`) is that every pass
//! preserves observable semantics — outputs, stores, traps and calls — so
//! the effect stream is identical across `-O` levels and thread counts even
//! though the instruction stream is not. That makes two coarse recordings
//! of the same program under different configurations directly alignable:
//! checkpoint *k* in both covers the same effect prefix, and a divergent
//! checksum brackets the first divergence to one effect window. Replay
//! machinery (`replay.rs`) then re-records that window at full fidelity
//! ([`EffectSite`] per effect: its [`Site`], pc and opcode) and reports the
//! first divergent effect.
//!
//! Under `parallelfor`, each worker gets a [`Recorder::worker_shard`] that
//! buffers its effects locally; the owner absorbs shards **in chunk order**
//! (the same order the sequential fallback uses), so recordings are
//! byte-identical at every thread count. Thread count is deliberately not
//! part of [`RecMeta`].

use crate::Site;
use std::fmt::Write as _;

/// `.rec` text format version. The parser rejects anything else loudly.
pub const REC_FORMAT_VERSION: u32 = 1;

/// Default checkpoint cadence: one checksum every this many heap effects.
pub const DEFAULT_CADENCE: u64 = 4096;

/// Incremental FNV-1a 64-bit hasher.
///
/// Multi-byte values must be fed through [`Fnv64::write_u64`] (or as
/// explicitly little-endian byte slices) so the digest is independent of
/// host endianness — there is a unit test pinning this.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Starts a fresh digest at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Feeds raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Feeds a 64-bit value as its little-endian byte image.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Returns the current digest without consuming the hasher.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Convenience one-shot hash of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Configuration a recording was captured under — everything needed to
/// re-execute the same program the same way. Thread count is deliberately
/// absent: recordings are thread-count invariant by construction (worker
/// shards are absorbed in chunk order), so including it would break the
/// byte-identity of `.rec` files across `--threads` settings for no gain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecMeta {
    /// Path of the script that was executed (re-run by `--replay`).
    pub script: String,
    /// Optimization level (0, 1, or 2).
    pub opt: u8,
    /// Whether bounds-check elision was enabled.
    pub checkelim: bool,
    /// Whether the memory sanitizer was enabled.
    pub sanitize: bool,
    /// Checkpoint cadence in effects.
    pub cadence: u64,
    /// Full-fidelity window `[lo, hi)` in effect indices; `None` = coarse.
    pub window: Option<(u64, u64)>,
}

impl RecMeta {
    /// A coarse-mode meta for `script` at opt level `opt` with defaults.
    pub fn coarse(script: &str, opt: u8) -> Self {
        RecMeta {
            script: script.to_string(),
            opt,
            checkelim: false,
            sanitize: false,
            cadence: DEFAULT_CADENCE,
            window: None,
        }
    }
}

/// One observable heap effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EffectKind {
    /// A scalar or vector store into the heap. `bits` is the stored value
    /// masked to `width` bytes (vector stores hash their LE byte image).
    Store {
        /// Absolute heap address written.
        addr: u64,
        /// Width of the store in bytes.
        width: u32,
        /// Value bits (masked to width; FNV digest for vector stores).
        bits: u64,
    },
    /// `malloc(size)` returning `addr`.
    Alloc {
        /// Requested size in bytes.
        size: u64,
        /// Address handed back.
        addr: u64,
    },
    /// `free(addr)`.
    Free {
        /// Address released.
        addr: u64,
    },
    /// `realloc(old, size)` returning `addr`.
    Realloc {
        /// Previous block address.
        old: u64,
        /// New size in bytes.
        size: u64,
        /// Address handed back.
        addr: u64,
    },
    /// `memcpy(dst, src, len)` with a heap destination.
    Copy {
        /// Destination address.
        dst: u64,
        /// Source address.
        src: u64,
        /// Bytes copied.
        len: u64,
    },
    /// `memset(addr, byte, len)` with a heap destination.
    Set {
        /// Destination address.
        addr: u64,
        /// Fill byte.
        byte: u8,
        /// Bytes filled.
        len: u64,
    },
    /// Program output (`printf`): length and FNV digest of the text.
    Output {
        /// Byte length of the emitted text.
        len: u64,
        /// FNV-1a-64 digest of the emitted text.
        hash: u64,
    },
}

impl EffectKind {
    /// Human-readable one-line description for divergence reports.
    pub fn describe(&self) -> String {
        match self {
            EffectKind::Store { addr, width, bits } => {
                format!("store {width} bytes @ {addr:#x} = {bits:#x}")
            }
            EffectKind::Alloc { size, addr } => format!("malloc({size}) -> {addr:#x}"),
            EffectKind::Free { addr } => format!("free({addr:#x})"),
            EffectKind::Realloc { old, size, addr } => {
                format!("realloc({old:#x}, {size}) -> {addr:#x}")
            }
            EffectKind::Copy { dst, src, len } => {
                format!("memcpy(dst {dst:#x}, src {src:#x}, {len} bytes)")
            }
            EffectKind::Set { addr, byte, len } => {
                format!("memset({addr:#x}, {byte:#04x}, {len} bytes)")
            }
            EffectKind::Output { len, hash } => {
                format!("output {len} bytes (hash {hash:#018x})")
            }
        }
    }
}

/// Where an effect came from: attached only inside a full-fidelity window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectSite {
    /// The source site of the instruction that produced the effect.
    pub at: Site,
    /// Its bytecode pc.
    pub pc: u32,
    /// Opcode mnemonic.
    pub op: String,
}

/// One recorded effect; `site` is present only in window (full-fidelity) mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Effect {
    /// Global effect index (0-based, across the whole run).
    pub idx: u64,
    /// What happened.
    pub kind: EffectKind,
    /// Where it happened (window mode only).
    pub site: Option<EffectSite>,
}

/// Periodic state checksum.
///
/// `effects`, `heap`, and `out` are comparable **across** configurations
/// (the alignment keys); `retired` and `regs` depend on the instruction
/// stream and are meaningful only when comparing identical configurations
/// (`--replay` verification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Effect count at this checkpoint.
    pub effects: u64,
    /// Retired-instruction count (same-config metadata).
    pub retired: u64,
    /// FNV-1a-64 of the register file (same-config metadata).
    pub regs: u64,
    /// FNV-1a-64 of the heap region `[heap_base, brk)`.
    pub heap: u64,
    /// FNV-1a-64 of all program output so far.
    pub out: u64,
}

/// Live recording state; owned by the VM's execution context while
/// `--record` (or harness recording) is active.
#[derive(Debug)]
pub struct Recorder {
    meta: RecMeta,
    effects: u64,
    retired: u64,
    out: Fnv64,
    out_bytes: u64,
    checkpoints: Vec<Checkpoint>,
    window_effects: Vec<Effect>,
    staged: Option<EffectSite>,
    due: bool,
    in_worker: bool,
}

impl Recorder {
    /// Starts a recorder with the given configuration.
    pub fn new(meta: RecMeta) -> Self {
        Recorder {
            meta,
            effects: 0,
            retired: 0,
            out: Fnv64::new(),
            out_bytes: 0,
            checkpoints: Vec::new(),
            window_effects: Vec::new(),
            staged: None,
            due: false,
            in_worker: false,
        }
    }

    /// The configuration this recorder was started with.
    pub fn meta(&self) -> &RecMeta {
        &self.meta
    }

    /// A fresh shard for a `parallelfor` worker: buffers effects locally
    /// (at full fidelity when the parent is in window mode — the shard
    /// cannot know its absolute effect indices until it is absorbed), and
    /// never takes checkpoints of its own.
    pub fn worker_shard(&self) -> Recorder {
        Recorder {
            in_worker: true,
            ..Recorder::new(self.meta.clone())
        }
    }

    /// True when the emitter should attach an [`EffectSite`] to the next
    /// effect: window mode, and (for the owner) the cursor is inside the
    /// window. Worker shards always capture sites in window mode because
    /// their absolute indices are unknown until absorb time.
    pub fn wants_detail(&self) -> bool {
        match self.meta.window {
            None => false,
            Some((lo, hi)) => self.in_worker || (self.effects >= lo && self.effects < hi),
        }
    }

    /// Stages the source site for the next [`Recorder::effect`] call.
    /// Call only when [`Recorder::wants_detail`] is true.
    pub fn stage_site(&mut self, site: EffectSite) {
        self.staged = Some(site);
    }

    /// Records one heap effect at the current cursor.
    pub fn effect(&mut self, kind: EffectKind) {
        let site = self.staged.take();
        if self.wants_detail() {
            self.window_effects.push(Effect {
                idx: self.effects,
                kind,
                site,
            });
        }
        let before = self.effects;
        self.effects += 1;
        if !self.in_worker && self.effects / self.meta.cadence > before / self.meta.cadence {
            self.due = true;
        }
    }

    /// Records program output: an [`EffectKind::Output`] effect plus (for
    /// the owner) an update of the running output digest. Worker shards
    /// defer the digest to absorb time, where the owner hashes the
    /// captured text in chunk order.
    pub fn effect_output(&mut self, text: &str) {
        self.effect(EffectKind::Output {
            len: text.len() as u64,
            hash: fnv64(text.as_bytes()),
        });
        if !self.in_worker {
            self.out.write(text.as_bytes());
            self.out_bytes += text.len() as u64;
        }
    }

    /// Counts `n` retired instructions.
    #[inline]
    pub fn retire(&mut self, n: u64) {
        self.retired += n;
    }

    /// True when a checkpoint is due (owner only; the caller computes the
    /// state hashes and calls [`Recorder::checkpoint`]).
    #[inline]
    pub fn checkpoint_due(&self) -> bool {
        self.due
    }

    /// Takes a checkpoint with the given register-file and heap hashes.
    pub fn checkpoint(&mut self, regs: u64, heap: u64) {
        self.checkpoints.push(Checkpoint {
            effects: self.effects,
            retired: self.retired,
            regs,
            heap,
            out: self.out.finish(),
        });
        self.due = false;
    }

    /// Absorbs a worker shard plus the text the worker printed. Must be
    /// called in chunk order — that ordering is what makes recordings
    /// thread-count invariant.
    pub fn absorb_worker(&mut self, shard: Recorder, output_text: &str) {
        let base = self.effects;
        if let Some((lo, hi)) = self.meta.window {
            for mut e in shard.window_effects {
                e.idx += base;
                if e.idx >= lo && e.idx < hi {
                    self.window_effects.push(e);
                }
            }
        }
        let before = self.effects;
        self.effects += shard.effects;
        self.retired += shard.retired;
        self.out.write(output_text.as_bytes());
        self.out_bytes += output_text.len() as u64;
        if self.effects / self.meta.cadence > before / self.meta.cadence {
            self.due = true;
        }
    }

    /// Finishes the recording, appending a final checkpoint with the given
    /// terminal state hashes (unless the last cadence checkpoint already
    /// sits at the current effect count).
    pub fn finish(mut self, regs: u64, heap: u64) -> Recording {
        let at_end = self
            .checkpoints
            .last()
            .is_some_and(|c| c.effects == self.effects);
        if !at_end {
            self.checkpoint(regs, heap);
        }
        Recording {
            meta: self.meta,
            checkpoints: self.checkpoints,
            effects: self.window_effects,
            total_effects: self.effects,
            total_retired: self.retired,
            out_bytes: self.out_bytes,
        }
    }
}

/// A finished recording: what `.rec` files serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// Capture configuration.
    pub meta: RecMeta,
    /// Periodic state checksums, in effect order.
    pub checkpoints: Vec<Checkpoint>,
    /// Full-fidelity effects (window mode only; empty in coarse mode).
    pub effects: Vec<Effect>,
    /// Total heap effects in the run.
    pub total_effects: u64,
    /// Total retired instructions in the run.
    pub total_retired: u64,
    /// Total program output bytes.
    pub out_bytes: u64,
}

impl Recording {
    /// Serializes to the versioned `.rec` text format.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "#terra-rec v{REC_FORMAT_VERSION}");
        let window = match self.meta.window {
            None => "-".to_string(),
            Some((lo, hi)) => format!("{lo}:{hi}"),
        };
        let _ = writeln!(
            s,
            "meta cadence={} opt={} checkelim={} sanitize={} window={} script={}",
            self.meta.cadence,
            self.meta.opt,
            self.meta.checkelim as u8,
            self.meta.sanitize as u8,
            window,
            self.meta.script
        );
        for c in &self.checkpoints {
            let _ = writeln!(
                s,
                "ck e={} i={} r={:016x} h={:016x} o={:016x}",
                c.effects, c.retired, c.regs, c.heap, c.out
            );
        }
        for e in &self.effects {
            let _ = write!(s, "ef e={}", e.idx);
            match &e.kind {
                EffectKind::Store { addr, width, bits } => {
                    let _ = write!(s, " k=st a={addr:x} w={width} v={bits:x}");
                }
                EffectKind::Alloc { size, addr } => {
                    let _ = write!(s, " k=al n={size:x} a={addr:x}");
                }
                EffectKind::Free { addr } => {
                    let _ = write!(s, " k=fr a={addr:x}");
                }
                EffectKind::Realloc { old, size, addr } => {
                    let _ = write!(s, " k=re p={old:x} n={size:x} a={addr:x}");
                }
                EffectKind::Copy { dst, src, len } => {
                    let _ = write!(s, " k=cp d={dst:x} s={src:x} n={len:x}");
                }
                EffectKind::Set { addr, byte, len } => {
                    let _ = write!(s, " k=ms a={addr:x} b={byte:x} n={len:x}");
                }
                EffectKind::Output { len, hash } => {
                    let _ = write!(s, " k=out n={len:x} h={hash:x}");
                }
            }
            if let Some(site) = &e.site {
                let (Site { func, line, chain }, pc, op) = (&site.at, site.pc, &site.op);
                let _ = write!(s, " pc={pc} op={op} line={line} f={func}");
                if let Some(chain) = chain {
                    let _ = write!(s, " prov={chain}");
                }
            }
            s.push('\n');
        }
        let _ = writeln!(
            s,
            "end e={} i={} outb={}",
            self.total_effects, self.total_retired, self.out_bytes
        );
        s
    }

    /// Parses the `.rec` text format, rejecting unknown format versions.
    pub fn parse(text: &str) -> Result<Recording, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty recording")?;
        let expect = format!("#terra-rec v{REC_FORMAT_VERSION}");
        if header != expect {
            return Err(format!(
                "unsupported recording format header {header:?} (this build reads {expect:?})"
            ));
        }
        let meta_line = lines.next().ok_or("recording missing meta line")?;
        let meta = parse_meta(meta_line)?;
        let mut checkpoints = Vec::new();
        let mut effects = Vec::new();
        let mut end: Option<(u64, u64, u64)> = None;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("ck ") {
                checkpoints.push(parse_checkpoint(rest)?);
            } else if let Some(rest) = line.strip_prefix("ef ") {
                effects.push(parse_effect(rest)?);
            } else if let Some(rest) = line.strip_prefix("end ") {
                let f = Fields(rest);
                end = Some((f.u64("e")?, f.u64("i")?, f.u64("outb")?));
            } else {
                return Err(format!("unrecognized recording line {line:?}"));
            }
        }
        let (total_effects, total_retired, out_bytes) =
            end.ok_or("recording missing end line (truncated?)")?;
        Ok(Recording {
            meta,
            checkpoints,
            effects,
            total_effects,
            total_retired,
            out_bytes,
        })
    }
}

/// `key=value` field accessor over one record line. `script=` and `prov=`
/// swallow the rest of the line (they may contain spaces) and therefore
/// always serialize last.
struct Fields<'a>(&'a str);

impl<'a> Fields<'a> {
    fn raw(&self, key: &str) -> Option<&'a str> {
        let pat = format!("{key}=");
        let mut rest = self.0;
        loop {
            let at = rest.find(&pat)?;
            // Must start a token.
            if at == 0 || rest.as_bytes()[at - 1] == b' ' {
                let v = &rest[at + pat.len()..];
                return Some(v.split(' ').next().unwrap_or(v));
            }
            rest = &rest[at + pat.len()..];
        }
    }

    /// Rest-of-line field (may contain spaces).
    fn tail(&self, key: &str) -> Option<&'a str> {
        let pat = format!("{key}=");
        let at = self.0.find(&pat)?;
        if at == 0 || self.0.as_bytes()[at - 1] == b' ' {
            Some(&self.0[at + pat.len()..])
        } else {
            None
        }
    }

    /// A field the record cannot do without.
    fn need(&self, key: &str) -> Result<&'a str, String> {
        self.raw(key).ok_or_else(|| format!("missing field {key}="))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        let v = self.need(key)?;
        v.parse::<u64>()
            .map_err(|_| format!("bad decimal field {key}={v}"))
    }

    fn hex(&self, key: &str) -> Result<u64, String> {
        let v = self.need(key)?;
        u64::from_str_radix(v, 16).map_err(|_| format!("bad hex field {key}={v}"))
    }
}

fn parse_meta(line: &str) -> Result<RecMeta, String> {
    let rest = line
        .strip_prefix("meta ")
        .ok_or_else(|| format!("expected meta line, got {line:?}"))?;
    let f = Fields(rest);
    let window_s = f.need("window")?;
    let window = if window_s == "-" {
        None
    } else {
        let (lo, hi) = window_s
            .split_once(':')
            .ok_or_else(|| format!("bad window field {window_s:?}"))?;
        Some((
            lo.parse::<u64>().map_err(|_| "bad window lo")?,
            hi.parse::<u64>().map_err(|_| "bad window hi")?,
        ))
    };
    Ok(RecMeta {
        cadence: f.u64("cadence")?,
        opt: f.u64("opt")? as u8,
        checkelim: f.u64("checkelim")? != 0,
        sanitize: f.u64("sanitize")? != 0,
        window,
        script: f.tail("script").ok_or("missing field script=")?.to_string(),
    })
}

fn parse_checkpoint(rest: &str) -> Result<Checkpoint, String> {
    let f = Fields(rest);
    Ok(Checkpoint {
        effects: f.u64("e")?,
        retired: f.u64("i")?,
        regs: f.hex("r")?,
        heap: f.hex("h")?,
        out: f.hex("o")?,
    })
}

fn parse_effect(rest: &str) -> Result<Effect, String> {
    let f = Fields(rest);
    let kind = match f.need("k")? {
        "st" => EffectKind::Store {
            addr: f.hex("a")?,
            width: f.u64("w")? as u32,
            bits: f.hex("v")?,
        },
        "al" => EffectKind::Alloc {
            size: f.hex("n")?,
            addr: f.hex("a")?,
        },
        "fr" => EffectKind::Free { addr: f.hex("a")? },
        "re" => EffectKind::Realloc {
            old: f.hex("p")?,
            size: f.hex("n")?,
            addr: f.hex("a")?,
        },
        "cp" => EffectKind::Copy {
            dst: f.hex("d")?,
            src: f.hex("s")?,
            len: f.hex("n")?,
        },
        "ms" => EffectKind::Set {
            addr: f.hex("a")?,
            byte: f.hex("b")? as u8,
            len: f.hex("n")?,
        },
        "out" => EffectKind::Output {
            len: f.hex("n")?,
            hash: f.hex("h")?,
        },
        other => return Err(format!("unknown effect kind {other:?}")),
    };
    let site = match f.raw("pc") {
        None => None,
        Some(pc) => Some(EffectSite {
            pc: pc.parse::<u32>().map_err(|_| "bad pc field")?,
            op: f.need("op")?.to_string(),
            at: Site::new(f.need("f")?, f.u64("line")? as u32, f.tail("prov")),
        }),
    };
    Ok(Effect {
        idx: f.u64("e")?,
        kind,
        site,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_golden_values() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn write_u64_is_little_endian_byte_feed() {
        // The digest of a u64 equals the digest of its LE byte image, so
        // hashes agree between little- and big-endian hosts (which both
        // produce the same `to_le_bytes()` image).
        let v: u64 = 0x0123_4567_89ab_cdef;
        let mut a = Fnv64::new();
        a.write_u64(v);
        let mut b = Fnv64::new();
        b.write(&[0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01]);
        assert_eq!(a.finish(), b.finish());
    }

    fn sample_recording(window: Option<(u64, u64)>) -> Recording {
        let mut meta = RecMeta::coarse("examples/demo.t", 2);
        meta.cadence = 2;
        meta.window = window;
        let mut rec = Recorder::new(meta);
        rec.retire(1);
        rec.retire(1);
        if rec.wants_detail() {
            rec.stage_site(EffectSite {
                at: Site::new("kernel", 4, Some("via quote at line 9")),
                pc: 7,
                op: "st.64".into(),
            });
        }
        rec.effect(EffectKind::Store {
            addr: 0x1f48,
            width: 8,
            bits: 0x4049_0fdb,
        });
        rec.effect(EffectKind::Alloc {
            size: 64,
            addr: 0x2000,
        });
        if rec.checkpoint_due() {
            rec.checkpoint(0x1111, 0x2222);
        }
        rec.effect_output("hello\n");
        rec.finish(0x3333, 0x4444)
    }

    #[test]
    fn text_round_trip_coarse() {
        let r = sample_recording(None);
        let text = r.to_text();
        assert!(text.starts_with("#terra-rec v1\n"));
        let back = Recording::parse(&text).expect("parse");
        assert_eq!(back, r);
        assert!(back.effects.is_empty(), "coarse mode records no effects");
    }

    #[test]
    fn text_round_trip_window() {
        let r = sample_recording(Some((0, 100)));
        let text = r.to_text();
        let back = Recording::parse(&text).expect("parse");
        assert_eq!(back, r);
        assert_eq!(back.effects.len(), 3);
        let site = back.effects[0].site.as_ref().expect("site");
        assert_eq!(
            site.at.to_string(),
            "kernel:4, generated via quote at line 9"
        );
    }

    #[test]
    fn unknown_version_is_rejected() {
        let r = sample_recording(None);
        let text = r.to_text().replace("#terra-rec v1", "#terra-rec v9");
        let err = Recording::parse(&text).unwrap_err();
        assert!(err.contains("unsupported recording format"), "{err}");
    }

    #[test]
    fn worker_shards_absorb_in_chunk_order() {
        let mut meta = RecMeta::coarse("p.t", 0);
        meta.window = Some((0, 10));
        let mut owner = Recorder::new(meta);
        owner.effect(EffectKind::Store {
            addr: 0x100,
            width: 8,
            bits: 1,
        });
        let mut w0 = owner.worker_shard();
        let mut w1 = owner.worker_shard();
        // Workers record concurrently; absorb order (chunk order) decides
        // the global effect indices.
        w1.effect(EffectKind::Store {
            addr: 0x300,
            width: 8,
            bits: 3,
        });
        w0.effect(EffectKind::Store {
            addr: 0x200,
            width: 8,
            bits: 2,
        });
        owner.absorb_worker(w0, "");
        owner.absorb_worker(w1, "");
        let rec = owner.finish(0, 0);
        let addrs: Vec<u64> = rec
            .effects
            .iter()
            .map(|e| match e.kind {
                EffectKind::Store { addr, .. } => addr,
                _ => 0,
            })
            .collect();
        assert_eq!(addrs, vec![0x100, 0x200, 0x300]);
        assert_eq!(
            rec.effects.iter().map(|e| e.idx).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn checkpoint_cadence_counts_effects_not_instructions() {
        let mut meta = RecMeta::coarse("p.t", 0);
        meta.cadence = 3;
        let mut rec = Recorder::new(meta);
        for i in 0..7u64 {
            for _ in 0..100 {
                rec.retire(1);
            }
            rec.effect(EffectKind::Store {
                addr: 0x100 + i,
                width: 1,
                bits: i,
            });
            if rec.checkpoint_due() {
                rec.checkpoint(0, 0);
            }
        }
        let rec = rec.finish(0, 0);
        let marks: Vec<u64> = rec.checkpoints.iter().map(|c| c.effects).collect();
        assert_eq!(marks, vec![3, 6, 7]);
    }
}
