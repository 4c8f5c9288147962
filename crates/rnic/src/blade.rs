//! Memory blades: the passive, byte-addressable remote memory pool.
//!
//! A blade owns a real byte region; READ/WRITE copy real bytes, CAS/FAA
//! execute atomically at the blade's atomic unit in arrival order. Blades
//! have near-zero compute (§2.1) — they never post requests; their RNIC
//! only has a responder pipeline, modelled once in
//! `MemoryBlade::serve` whichever domain the blade lives in.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use smart_rt::metrics::Counter;
use smart_rt::sync::{Bandwidth, FifoResource};
use smart_rt::SimHandle;
use smart_trace::{Actor, Args, Category};

use crate::config::{BladeConfig, FabricConfig, RnicConfig};
use crate::engine::RemotePort;
use crate::types::{BladeId, CqeError, OneSidedOp, OpResult};

/// A memory blade: region bytes + responder-side RNIC resources.
pub struct MemoryBlade {
    id: BladeId,
    handle: SimHandle,
    mem: RefCell<Vec<u8>>,
    brk: Cell<u64>,
    /// Responder processing pipeline of the blade's RNIC.
    pub(crate) responder: FifoResource,
    /// Serialization point for CAS/FAA execution.
    atomic_unit: FifoResource,
    /// Inbound link (requests arriving at the blade).
    pub(crate) ingress: Bandwidth,
    /// Outbound link (responses leaving the blade).
    pub(crate) egress: Bandwidth,
    nvm_write_latency: Duration,
    ops: Counter,
    crashed: Cell<bool>,
    epoch: Cell<u64>,
    /// Requester-side port to this blade's engine domain, when the blade
    /// is a domain-0 shadow in a decomposed run. `None` (the default):
    /// the verb lifecycle serves this copy in place.
    remote: RefCell<Option<Rc<RemotePort>>>,
}

impl std::fmt::Debug for MemoryBlade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryBlade")
            .field("id", &self.id)
            .field("region_bytes", &self.mem.borrow().len())
            .field("allocated", &self.brk.get())
            .field("ops", &self.ops.get())
            .finish()
    }
}

impl MemoryBlade {
    /// Creates a blade with the given id and configuration.
    pub fn new(
        handle: SimHandle,
        id: BladeId,
        blade_cfg: &BladeConfig,
        fabric_cfg: &FabricConfig,
    ) -> Rc<Self> {
        Rc::new(MemoryBlade {
            id,
            mem: RefCell::new(vec![0u8; blade_cfg.region_bytes as usize]),
            brk: Cell::new(64), // offset 0 is reserved as a null-like sentinel
            responder: FifoResource::new(handle.clone()),
            atomic_unit: FifoResource::new(handle.clone()),
            ingress: Bandwidth::new(handle.clone(), fabric_cfg.link_bytes_per_sec),
            egress: Bandwidth::new(handle.clone(), fabric_cfg.link_bytes_per_sec),
            handle,
            nvm_write_latency: blade_cfg.nvm_write_latency,
            ops: Counter::new(),
            crashed: Cell::new(false),
            epoch: Cell::new(0),
            remote: RefCell::new(None),
        })
    }

    /// Attaches the requester-side [`RemotePort`] to this (shadow) blade:
    /// from now on the verb lifecycle routes execution to the blade's
    /// engine domain instead of this copy's memory.
    ///
    /// # Panics
    ///
    /// Panics if a port is already attached.
    pub(crate) fn attach_remote(&self, port: Rc<RemotePort>) {
        let mut slot = self.remote.borrow_mut();
        assert!(
            slot.is_none(),
            "blade {} already has a remote port attached",
            self.id.0
        );
        *slot = Some(port);
    }

    /// The attached remote port, if this blade is a decomposed shadow.
    pub(crate) fn remote_port(&self) -> Option<Rc<RemotePort>> {
        self.remote.borrow().clone()
    }

    /// This blade's id.
    pub fn id(&self) -> BladeId {
        self.id
    }

    /// The simulation handle this blade runs on.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// Size of the registered region in bytes.
    pub fn region_bytes(&self) -> u64 {
        self.mem.borrow().len() as u64
    }

    /// Number of one-sided operations this blade has served.
    pub fn ops_served(&self) -> u64 {
        self.ops.get()
    }

    /// Whether the blade is currently down (fault injection). While
    /// crashed, one-sided operations targeting it surface as
    /// [`CqeError::Timeout`] completions and RPC
    /// calls stall until restart.
    pub fn is_crashed(&self) -> bool {
        self.crashed.get()
    }

    /// Takes the blade down (fault injection). Memory contents are
    /// preserved — the model is a power-fenced or battery-backed blade,
    /// so applications recover *state* for free but must survive the
    /// outage window.
    pub fn crash(&self) {
        self.crashed.set(true);
    }

    /// Brings the blade back up, bumping its registration epoch: memory
    /// regions registered before the crash are stale, and requesters see
    /// one [`CqeError::MrRevoked`] completion
    /// per QP before their re-registered handles work again.
    pub fn restart(&self) {
        self.crashed.set(false);
        self.epoch.set(self.epoch.get() + 1);
    }

    /// The blade's registration epoch (number of restarts survived).
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Bump-allocates `len` bytes aligned to `align` and returns the
    /// offset. This is the blade-side allocator applications use during
    /// their load phase (real systems do this via an RPC to the blade's
    /// weak CPU).
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or the region is exhausted.
    pub fn alloc(&self, len: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.brk.get() + align - 1) & !(align - 1);
        let end = base + len;
        assert!(
            end <= self.region_bytes(),
            "memory blade {} exhausted: want {} bytes at {}, region is {}",
            self.id.0,
            len,
            base,
            self.region_bytes()
        );
        self.brk.set(end);
        base
    }

    fn check_range(&self, offset: u64, len: u64) {
        assert!(
            offset + len <= self.region_bytes(),
            "access [{}, {}) out of blade {} region of {} bytes",
            offset,
            offset + len,
            self.id.0,
            self.region_bytes()
        );
    }

    /// Runs `f` on the `len` bytes at `offset`, borrowed in place. The
    /// region stays borrowed until `f` returns, so `f` must not write to
    /// this blade.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range access.
    pub fn with_bytes<R>(&self, offset: u64, len: u64, f: impl FnOnce(&[u8]) -> R) -> R {
        self.check_range(offset, len);
        f(&self.mem.borrow()[offset as usize..(offset + len) as usize])
    }

    /// Runs `f` on the `len` bytes at `offset`, borrowed mutably in place.
    /// The region stays borrowed until `f` returns, so `f` must not touch
    /// this blade.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range access.
    pub fn with_bytes_mut<R>(&self, offset: u64, len: u64, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.check_range(offset, len);
        f(&mut self.mem.borrow_mut()[offset as usize..(offset + len) as usize])
    }

    /// Reads `N` consecutive little-endian `u64`s at an 8-byte-aligned
    /// offset under one borrow.
    ///
    /// # Panics
    ///
    /// Panics on misalignment or out-of-range access.
    pub fn read_words<const N: usize>(&self, offset: u64) -> [u64; N] {
        assert_eq!(offset % 8, 0, "u64 access must be 8-byte aligned");
        self.with_bytes(offset, 8 * N as u64, |bytes| {
            std::array::from_fn(|i| {
                u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"))
            })
        })
    }

    /// Copies `len` bytes at `offset` out of the region.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range access.
    pub fn read_bytes(&self, offset: u64, len: u64) -> Vec<u8> {
        self.check_range(offset, len);
        self.mem.borrow()[offset as usize..(offset + len) as usize].to_vec()
    }

    /// Writes `data` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range access.
    pub fn write_bytes(&self, offset: u64, data: &[u8]) {
        self.check_range(offset, data.len() as u64);
        self.mem.borrow_mut()[offset as usize..offset as usize + data.len()].copy_from_slice(data);
    }

    /// Reads a little-endian `u64` at an 8-byte-aligned offset.
    ///
    /// # Panics
    ///
    /// Panics on misalignment or out-of-range access.
    pub fn read_u64(&self, offset: u64) -> u64 {
        assert_eq!(offset % 8, 0, "u64 access must be 8-byte aligned");
        self.check_range(offset, 8);
        let mem = self.mem.borrow();
        u64::from_le_bytes(
            mem[offset as usize..offset as usize + 8]
                .try_into()
                .expect("8 bytes"),
        )
    }

    /// Writes a little-endian `u64` at an 8-byte-aligned offset.
    ///
    /// # Panics
    ///
    /// Panics on misalignment or out-of-range access.
    pub fn write_u64(&self, offset: u64, value: u64) {
        assert_eq!(offset % 8, 0, "u64 access must be 8-byte aligned");
        self.check_range(offset, 8);
        self.mem.borrow_mut()[offset as usize..offset as usize + 8]
            .copy_from_slice(&value.to_le_bytes());
    }

    /// Atomically compares-and-swaps the `u64` at `offset`; returns the
    /// old value (the swap happened iff `old == expect`).
    ///
    /// # Panics
    ///
    /// Panics on misalignment or out-of-range access.
    pub fn cas_u64(&self, offset: u64, expect: u64, swap: u64) -> u64 {
        let old = self.read_u64(offset);
        if old == expect {
            self.write_u64(offset, swap);
        }
        old
    }

    /// Atomically fetch-and-adds the `u64` at `offset`; returns the old
    /// value.
    ///
    /// # Panics
    ///
    /// Panics on misalignment or out-of-range access.
    pub fn faa_u64(&self, offset: u64, add: u64) -> u64 {
        let old = self.read_u64(offset);
        self.write_u64(offset, old.wrapping_add(add));
        old
    }

    /// Serves one work request that has arrived at this blade: the
    /// responder half of the verb lifecycle, written once for both the
    /// same-domain path and the blade engine domain. Large requests first
    /// serialize on the ingress link; then a crashed blade answers
    /// nothing ([`CqeError::Timeout`] at once — the caller burns the
    /// retransmit budget, and the request never executes); otherwise the
    /// request passes the responder pipeline, atomics also the atomic
    /// unit, the memory operation executes (a persistent WRITE waits out
    /// the NVM write latency) and large responses serialize on the egress
    /// link.
    pub(crate) async fn serve(
        &self,
        cfg: &RnicConfig,
        header: u64,
        op: &OneSidedOp,
        actor: Actor,
    ) -> Result<OpResult, CqeError> {
        let req_wire = header + op.request_payload();
        if req_wire >= cfg.small_payload_cutoff {
            self.ingress
                .transfer_as(req_wire, actor, Category::Fabric, "ingress")
                .await;
        }
        if self.is_crashed() {
            return Err(CqeError::Timeout);
        }
        self.responder
            .use_for_as(
                cfg.responder_service,
                actor,
                Category::Pipeline,
                "responder",
            )
            .await;
        if op.is_atomic() {
            self.atomic_unit
                .use_for_as(cfg.atomic_service, actor, Category::Pipeline, "atomic_unit")
                .await;
        }
        let result = match op {
            OneSidedOp::Read { addr, len } => {
                OpResult::Read(self.read_bytes(addr.offset_bytes, *len as u64))
            }
            OneSidedOp::Write {
                addr,
                data,
                persistent,
            } => {
                self.write_bytes(addr.offset_bytes, data);
                if *persistent {
                    let (handle, nvm) = (&self.handle, self.nvm_write_latency);
                    handle.with_tracer(|t| {
                        t.span(
                            handle.now().as_nanos(),
                            nvm.as_nanos() as u64,
                            actor,
                            Category::Pipeline,
                            "nvm_write",
                            Args::NONE,
                        );
                    });
                    handle.sleep(nvm).await;
                }
                OpResult::Write
            }
            OneSidedOp::Cas { addr, expect, swap } => {
                OpResult::Atomic(self.cas_u64(addr.offset_bytes, *expect, *swap))
            }
            OneSidedOp::Faa { addr, add } => {
                OpResult::Atomic(self.faa_u64(addr.offset_bytes, *add))
            }
        };
        self.ops.incr();
        let resp_wire = header + op.response_payload();
        if resp_wire >= cfg.small_payload_cutoff {
            self.egress
                .transfer_as(resp_wire, actor, Category::Fabric, "egress")
                .await;
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_rt::Simulation;

    fn blade() -> (Simulation, Rc<MemoryBlade>) {
        let sim = Simulation::new(0);
        let b = MemoryBlade::new(
            sim.handle(),
            BladeId(0),
            &BladeConfig {
                region_bytes: 4096,
                ..Default::default()
            },
            &FabricConfig::default(),
        );
        (sim, b)
    }

    #[test]
    fn alloc_respects_alignment_and_bumps() {
        let (_sim, b) = blade();
        let a = b.alloc(10, 8);
        assert_eq!(a % 8, 0);
        let c = b.alloc(8, 64);
        assert_eq!(c % 64, 0);
        assert!(c >= a + 10);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn alloc_panics_when_full() {
        let (_sim, b) = blade();
        b.alloc(5000, 8);
    }

    #[test]
    fn read_write_roundtrip() {
        let (_sim, b) = blade();
        let off = b.alloc(16, 8);
        b.write_bytes(off, &[1, 2, 3, 4]);
        assert_eq!(b.read_bytes(off, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn u64_roundtrip_and_alignment() {
        let (_sim, b) = blade();
        let off = b.alloc(8, 8);
        b.write_u64(off, 0xDEAD_BEEF);
        assert_eq!(b.read_u64(off), 0xDEAD_BEEF);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_u64_panics() {
        let (_sim, b) = blade();
        b.read_u64(65); // brk starts at 64; 65 is misaligned
    }

    #[test]
    fn cas_swaps_only_on_match() {
        let (_sim, b) = blade();
        let off = b.alloc(8, 8);
        b.write_u64(off, 5);
        assert_eq!(b.cas_u64(off, 4, 9), 5); // mismatch: no swap
        assert_eq!(b.read_u64(off), 5);
        assert_eq!(b.cas_u64(off, 5, 9), 5); // match: swapped
        assert_eq!(b.read_u64(off), 9);
    }

    #[test]
    fn faa_adds_and_returns_old() {
        let (_sim, b) = blade();
        let off = b.alloc(8, 8);
        b.write_u64(off, 10);
        assert_eq!(b.faa_u64(off, 7), 10);
        assert_eq!(b.read_u64(off), 17);
    }

    #[test]
    #[should_panic(expected = "out of blade")]
    fn out_of_range_read_panics() {
        let (_sim, b) = blade();
        b.read_bytes(4090, 16);
    }

    #[test]
    fn read_words_equals_read_u64s() {
        let (_sim, b) = blade();
        let off = b.alloc(64, 8);
        for i in 0..8u64 {
            b.write_u64(off + 8 * i, 0x0101_0101_0101_0101 * (i + 1) + i);
        }
        let words = b.read_words::<8>(off);
        let singles: Vec<u64> = (0..8u64).map(|i| b.read_u64(off + 8 * i)).collect();
        assert_eq!(words.as_slice(), singles.as_slice());
    }

    #[test]
    fn borrowed_access_reads_and_writes_in_place() {
        let (_sim, b) = blade();
        let off = b.alloc(16, 8);
        b.with_bytes_mut(off, 4, |buf| buf.copy_from_slice(&[9, 8, 7, 6]));
        assert_eq!(b.with_bytes(off, 4, <[u8]>::to_vec), b.read_bytes(off, 4));
        assert_eq!(b.read_bytes(off, 4), vec![9, 8, 7, 6]);
    }

    /// The panic message of a failing access, as a string.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("access must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .expect("string panic payload")
    }

    #[test]
    fn borrowed_accesses_panic_like_copying_ones() {
        let (_sim, b) = blade();
        let out_of_range = panic_message(|| {
            b.read_bytes(4090, 16);
        });
        assert!(out_of_range.contains("access [4090, 4106) out of blade 0 region of 4096 bytes"));
        assert_eq!(
            panic_message(|| b.with_bytes(4090, 16, |_| ())),
            out_of_range
        );
        assert_eq!(
            panic_message(|| b.with_bytes_mut(4090, 16, |_| ())),
            out_of_range
        );
        assert_eq!(
            panic_message(|| {
                b.read_words::<2>(4088);
            }),
            panic_message(|| {
                b.read_bytes(4088, 16);
            })
        );
        let misaligned = panic_message(|| {
            b.read_u64(65);
        });
        assert!(misaligned.contains("u64 access must be 8-byte aligned"));
        assert_eq!(
            panic_message(|| {
                b.read_words::<8>(65);
            }),
            misaligned
        );
    }
}
