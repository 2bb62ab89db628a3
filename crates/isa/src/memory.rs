//! Harvard-style instruction/data memories of the MAUPITI digital block.

/// Base address of the instruction memory.
pub const IMEM_BASE: u32 = 0x0000_0000;
/// Base address of the data memory.
pub const DMEM_BASE: u32 = 0x0010_0000;

/// Byte-addressed instruction and data memories.
///
/// MAUPITI provides 16 KB of instruction memory and 16 KB of data memory;
/// both sizes are configurable so that experiments can also check whether a
/// model would overflow the chip's memories.
#[derive(Debug, Clone)]
pub struct Memory {
    imem: Vec<u8>,
    dmem: Vec<u8>,
}

impl Memory {
    /// Creates memories of the given sizes (in bytes).
    pub fn new(imem_size: usize, dmem_size: usize) -> Self {
        Self {
            imem: vec![0; imem_size],
            dmem: vec![0; dmem_size],
        }
    }

    /// MAUPITI's memory configuration: 16 KB + 16 KB.
    pub fn maupiti() -> Self {
        Self::new(16 * 1024, 16 * 1024)
    }

    /// Instruction memory size in bytes.
    pub fn imem_size(&self) -> usize {
        self.imem.len()
    }

    /// Data memory size in bytes.
    pub fn dmem_size(&self) -> usize {
        self.dmem.len()
    }

    /// Writes `bytes` into instruction memory starting at offset 0.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the number of available bytes if the program does
    /// not fit.
    pub fn load_imem(&mut self, bytes: &[u8]) -> Result<(), usize> {
        if bytes.len() > self.imem.len() {
            return Err(self.imem.len());
        }
        self.imem[..bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads the 32-bit instruction word at `addr`.
    pub fn fetch(&self, addr: u32) -> Option<u32> {
        let off = addr.checked_sub(IMEM_BASE)? as usize;
        if off + 4 > self.imem.len() || !off.is_multiple_of(4) {
            return None;
        }
        Some(u32::from_le_bytes([
            self.imem[off],
            self.imem[off + 1],
            self.imem[off + 2],
            self.imem[off + 3],
        ]))
    }

    fn dmem_offset(&self, addr: u32, len: usize) -> Option<usize> {
        let off = addr.checked_sub(DMEM_BASE)? as usize;
        if off + len > self.dmem.len() {
            return None;
        }
        Some(off)
    }

    /// Loads `len` (1, 2 or 4) bytes from data memory, little-endian.
    pub fn load(&self, addr: u32, len: usize) -> Option<u32> {
        let off = self.dmem_offset(addr, len)?;
        let mut value = 0u32;
        for i in 0..len {
            value |= (self.dmem[off + i] as u32) << (8 * i);
        }
        Some(value)
    }

    /// Stores the low `len` (1, 2 or 4) bytes of `value`, little-endian.
    pub fn store(&mut self, addr: u32, value: u32, len: usize) -> Option<()> {
        let off = self.dmem_offset(addr, len)?;
        for i in 0..len {
            self.dmem[off + i] = (value >> (8 * i)) as u8;
        }
        Some(())
    }

    /// Loads one byte of data memory (fast fixed-width path).
    #[inline]
    pub fn load_byte(&self, addr: u32) -> Option<u8> {
        self.dmem
            .get(addr.wrapping_sub(DMEM_BASE) as usize)
            .copied()
    }

    /// Loads a little-endian half-word (fast fixed-width path).
    #[inline]
    pub fn load_half(&self, addr: u32) -> Option<u16> {
        let off = addr.wrapping_sub(DMEM_BASE) as usize;
        let bytes = self.dmem.get(off..off.wrapping_add(2))?;
        Some(u16::from_le_bytes([bytes[0], bytes[1]]))
    }

    /// Loads a little-endian word (fast fixed-width path).
    #[inline]
    pub fn load_word(&self, addr: u32) -> Option<u32> {
        let off = addr.wrapping_sub(DMEM_BASE) as usize;
        let bytes = self.dmem.get(off..off.wrapping_add(4))?;
        Some(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Stores one byte of data memory (fast fixed-width path).
    #[inline]
    pub fn store_byte(&mut self, addr: u32, value: u8) -> Option<()> {
        *self.dmem.get_mut(addr.wrapping_sub(DMEM_BASE) as usize)? = value;
        Some(())
    }

    /// Stores a little-endian half-word (fast fixed-width path).
    #[inline]
    pub fn store_half(&mut self, addr: u32, value: u16) -> Option<()> {
        let off = addr.wrapping_sub(DMEM_BASE) as usize;
        self.dmem
            .get_mut(off..off.wrapping_add(2))?
            .copy_from_slice(&value.to_le_bytes());
        Some(())
    }

    /// Stores a little-endian word (fast fixed-width path).
    #[inline]
    pub fn store_word(&mut self, addr: u32, value: u32) -> Option<()> {
        let off = addr.wrapping_sub(DMEM_BASE) as usize;
        self.dmem
            .get_mut(off..off.wrapping_add(4))?
            .copy_from_slice(&value.to_le_bytes());
        Some(())
    }

    /// Copies a byte slice into data memory at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the destination range is out of bounds.
    pub fn write_dmem(&mut self, addr: u32, bytes: &[u8]) {
        let off = self
            .dmem_offset(addr, bytes.len())
            .expect("dmem write out of bounds");
        self.dmem[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Reads `len` bytes of data memory at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_dmem(&self, addr: u32, len: usize) -> &[u8] {
        let off = self
            .dmem_offset(addr, len)
            .expect("dmem read out of bounds");
        &self.dmem[off..off + len]
    }

    /// Data memory as a raw byte slice, for fused-loop execution whose
    /// addresses have already been bounds-checked.
    #[inline]
    pub(crate) fn dmem(&self) -> &[u8] {
        &self.dmem
    }

    /// Overwrites both memory images with `other`'s, in place (no
    /// reallocation). Used by [`crate::Cpu::restore_from`] to re-warm a
    /// faulted CPU from a pristine base without cloning fresh buffers.
    ///
    /// # Panics
    ///
    /// Panics if the memory geometries differ.
    pub fn copy_state_from(&mut self, other: &Memory) {
        assert_eq!(
            (self.imem.len(), self.dmem.len()),
            (other.imem.len(), other.dmem.len()),
            "cannot restore memory state across different memory geometries"
        );
        self.imem.copy_from_slice(&other.imem);
        self.dmem.copy_from_slice(&other.dmem);
    }
}

impl Default for Memory {
    fn default() -> Self {
        Self::maupiti()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sizes_match_maupiti() {
        let m = Memory::default();
        assert_eq!(m.imem_size(), 16 * 1024);
        assert_eq!(m.dmem_size(), 16 * 1024);
    }

    #[test]
    fn program_larger_than_imem_is_rejected() {
        let mut m = Memory::new(8, 8);
        assert!(m.load_imem(&[0u8; 12]).is_err());
        assert!(m.load_imem(&[0u8; 8]).is_ok());
    }

    #[test]
    fn fetch_requires_alignment_and_bounds() {
        let mut m = Memory::new(16, 16);
        m.load_imem(&0xDEADBEEFu32.to_le_bytes()).unwrap();
        assert_eq!(m.fetch(IMEM_BASE), Some(0xDEADBEEF));
        assert_eq!(m.fetch(IMEM_BASE + 2), None);
        assert_eq!(m.fetch(IMEM_BASE + 16), None);
    }

    #[test]
    fn data_memory_round_trips_little_endian() {
        let mut m = Memory::new(16, 64);
        m.store(DMEM_BASE + 4, 0x1122_3344, 4).unwrap();
        assert_eq!(m.load(DMEM_BASE + 4, 4), Some(0x1122_3344));
        assert_eq!(m.load(DMEM_BASE + 4, 1), Some(0x44));
        assert_eq!(m.load(DMEM_BASE + 5, 1), Some(0x33));
        assert_eq!(m.load(DMEM_BASE + 100, 4), None);
    }

    #[test]
    fn bulk_dmem_access_round_trips() {
        let mut m = Memory::new(16, 64);
        m.write_dmem(DMEM_BASE + 8, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_dmem(DMEM_BASE + 8, 5), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn addresses_outside_dmem_fail() {
        let m = Memory::new(16, 16);
        assert_eq!(m.load(0x42, 4), None); // below DMEM_BASE
        assert_eq!(m.load(DMEM_BASE + 14, 4), None); // straddles the end
    }
}
