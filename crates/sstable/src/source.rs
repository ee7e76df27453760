//! Data sources: where SSTable bytes live.
//!
//! A table reader is generic over [`DataSource`] so the *same* reader code
//! serves three situations with very different costs:
//!
//! * the compute node reading remote memory through a queue pair (each
//!   `read` is an RDMA read paying the network cost) — dLSM wires this up
//!   with its thread-local queue pairs;
//! * the memory node reading its own DRAM during near-data compaction
//!   ([`RegionSource`], zero network cost);
//! * plain in-memory buffers in tests ([`SliceSource`]).

use std::sync::Arc;

use rdma_sim::MemoryRegion;

use crate::{Result, SstError};

/// Random-access byte source backing one SSTable.
///
/// `read` must fill `dst` entirely from `offset`. Implementations may be
/// called from the thread that owns them only (`&self`, but no `Sync`
/// requirement — dLSM readers are thread-local).
pub trait DataSource {
    /// Fill `dst` with the bytes at `offset..offset + dst.len()`.
    fn read(&self, offset: u64, dst: &mut [u8]) -> Result<()>;

    /// Total length of the table in bytes.
    fn len(&self) -> u64;

    /// True if the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A table fully resident in a local byte slice.
#[derive(Debug, Clone)]
pub struct SliceSource<T: AsRef<[u8]>>(pub T);

impl<T: AsRef<[u8]>> DataSource for SliceSource<T> {
    fn read(&self, offset: u64, dst: &mut [u8]) -> Result<()> {
        let data = self.0.as_ref();
        let start = offset as usize;
        let end = start + dst.len();
        let src = data
            .get(start..end)
            .ok_or_else(|| SstError::Source(format!("slice read [{start}, {end}) beyond {}", data.len())))?;
        dst.copy_from_slice(src);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.0.as_ref().len() as u64
    }
}

/// A table stored in a registered memory region **owned by the reading
/// node** — local DRAM access, zero network cost. This is what a memory
/// node's compaction workers use to scan input SSTables in place.
#[derive(Debug, Clone)]
pub struct RegionSource {
    region: Arc<MemoryRegion>,
    base: u64,
    len: u64,
}

impl RegionSource {
    /// View `len` bytes of `region` starting at `base` as a table.
    pub fn new(region: Arc<MemoryRegion>, base: u64, len: u64) -> RegionSource {
        RegionSource { region, base, len }
    }
}

impl DataSource for RegionSource {
    fn read(&self, offset: u64, dst: &mut [u8]) -> Result<()> {
        if offset + dst.len() as u64 > self.len {
            return Err(SstError::Source(format!(
                "region read [{offset}, +{}) beyond table length {}",
                dst.len(),
                self.len
            )));
        }
        self.region
            .local_read(self.base + offset, dst)
            .map_err(|e| SstError::Source(e.to_string()))
    }

    fn len(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::{Fabric, NetworkProfile};

    #[test]
    fn slice_source_reads() {
        let s = SliceSource(b"0123456789".to_vec());
        let mut buf = [0u8; 4];
        s.read(3, &mut buf).unwrap();
        assert_eq!(&buf, b"3456");
        assert_eq!(s.len(), 10);
        assert!(s.read(8, &mut buf).is_err());
    }

    #[test]
    fn region_source_reads_within_window() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let node = fabric.add_node();
        let region = node.register_region(256);
        region.local_write(64, b"table-bytes").unwrap();
        let src = RegionSource::new(region, 64, 11);
        let mut buf = [0u8; 5];
        src.read(6, &mut buf).unwrap();
        assert_eq!(&buf, b"bytes");
        // Reads beyond the table window fail even though the region is big.
        assert!(src.read(7, &mut buf).is_err());
    }
}
