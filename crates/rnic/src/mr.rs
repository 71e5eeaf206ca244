//! Memory regions.
//!
//! [`ShmBuf`] (`kdbuf::shm`) is the unit of "physical" memory in the
//! simulation: the broker allocates a segment as a `ShmBuf`, registers it
//! ([`MemoryRegion`]), and hands the `(addr, rkey, len)` triple
//! ([`RemoteMr`]) to clients over the control plane — exactly the mmap +
//! `ibv_reg_mr` flow of §4.2.2.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

pub use kdbuf::{BufSlice, ShmBuf};
use netsim::NodeId;

/// Access permissions of a memory region, mirroring `ibv_access_flags`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Access(u32);

impl Access {
    pub const LOCAL: Access = Access(0);
    pub const REMOTE_READ: Access = Access(1);
    pub const REMOTE_WRITE: Access = Access(2);
    pub const REMOTE_ATOMIC: Access = Access(4);

    /// Read + write + atomic.
    pub fn all() -> Access {
        Access(7)
    }

    pub fn union(self, other: Access) -> Access {
        Access(self.0 | other.0)
    }

    pub fn allows(self, needed: Access) -> bool {
        self.0 & needed.0 == needed.0
    }
}

impl std::ops::BitOr for Access {
    type Output = Access;
    fn bitor(self, rhs: Access) -> Access {
        self.union(rhs)
    }
}

pub(crate) struct MrInner {
    pub(crate) buf: ShmBuf,
    pub(crate) addr: u64,
    pub(crate) rkey: u32,
    pub(crate) access: Access,
    pub(crate) node: NodeId,
    pub(crate) valid: Cell<bool>,
}

/// A registered memory region. Deregistering (or dropping the last handle)
/// invalidates remote access; in-flight remote operations then fail with
/// `RemoteAccessError`, breaking the QP — as on real hardware.
#[derive(Clone)]
pub struct MemoryRegion {
    pub(crate) inner: Rc<MrInner>,
}

impl MemoryRegion {
    /// Virtual base address of the region (fabric-unique).
    pub fn addr(&self) -> u64 {
        self.inner.addr
    }

    pub fn rkey(&self) -> u32 {
        self.inner.rkey
    }

    pub fn len(&self) -> usize {
        self.inner.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    pub fn buf(&self) -> &ShmBuf {
        &self.inner.buf
    }

    pub fn is_valid(&self) -> bool {
        self.inner.valid.get()
    }

    /// Description for the remote side (sent over the control plane).
    pub fn remote(&self) -> RemoteMr {
        RemoteMr {
            addr: self.addr(),
            rkey: self.rkey(),
            len: self.len() as u64,
        }
    }

    /// Local slice addressed by region-relative offset.
    pub fn slice(&self, offset: usize, len: usize) -> BufSlice {
        self.inner.buf.slice(offset, len)
    }
}

impl fmt::Debug for MemoryRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MemoryRegion {{ addr: {:#x}, rkey: {}, len: {}, valid: {} }}",
            self.addr(),
            self.rkey(),
            self.len(),
            self.is_valid()
        )
    }
}

/// The remote description of a memory region: what the broker returns from a
/// "get RDMA access" request (§4.2.2: "the virtual address and the full
/// length of the preallocated head file").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteMr {
    pub addr: u64,
    pub rkey: u32,
    pub len: u64,
}

impl RemoteMr {
    /// Remote address at `offset` into the region.
    pub fn at(&self, offset: u64) -> u64 {
        self.addr + offset
    }

    pub fn contains(&self, addr: u64, len: u64) -> bool {
        addr >= self.addr && addr + len <= self.addr + self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shmbuf_read_write() {
        let b = ShmBuf::zeroed(16);
        b.write_at(4, &[1, 2, 3]);
        assert_eq!(b.read_at(3, 5), vec![0, 1, 2, 3, 0]);
        b.write_u64(8, 0xdead_beef);
        assert_eq!(b.read_u64(8), 0xdead_beef);
    }

    #[test]
    fn slice_views_share_storage() {
        let b = ShmBuf::zeroed(8);
        let s = b.slice(2, 4);
        s.copy_from(&[9, 9]);
        assert_eq!(b.read_at(0, 8), vec![0, 0, 9, 9, 0, 0, 0, 0]);
        assert_eq!(s.sub(1, 2).to_vec(), vec![9, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_bounds_checked() {
        ShmBuf::zeroed(4).slice(2, 4);
    }

    #[test]
    fn access_flags() {
        let a = Access::REMOTE_READ | Access::REMOTE_WRITE;
        assert!(a.allows(Access::REMOTE_READ));
        assert!(a.allows(Access::REMOTE_WRITE));
        assert!(!a.allows(Access::REMOTE_ATOMIC));
        assert!(Access::all().allows(a));
        assert!(a.allows(Access::LOCAL));
    }

    #[test]
    fn remote_mr_bounds() {
        let r = RemoteMr {
            addr: 0x1000,
            rkey: 7,
            len: 64,
        };
        assert!(r.contains(0x1000, 64));
        assert!(r.contains(0x1020, 32));
        assert!(!r.contains(0x1020, 33));
        assert!(!r.contains(0xfff, 1));
        assert_eq!(r.at(16), 0x1010);
    }
}
