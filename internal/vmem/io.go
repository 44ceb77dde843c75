package vmem

import "encoding/binary"

// Typed accessors. All multi-byte values in simulated memory are
// little-endian, matching the x86 machines that motivate the paper.
// Simulated pointers (Addr) are stored as 8-byte values even on
// "32-bit" platform profiles; the profile's Space limit models the
// smaller address space, not the pointer encoding, which keeps one
// code path for both.

// ReadUint64 reads a little-endian uint64 at a.
func (s *Space) ReadUint64(a Addr) (uint64, error) {
	var b [8]byte
	if err := s.Read(a, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteUint64 writes a little-endian uint64 at a.
func (s *Space) WriteUint64(a Addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return s.Write(a, b[:])
}

// ReadAddr reads a simulated pointer stored at a.
func (s *Space) ReadAddr(a Addr) (Addr, error) {
	v, err := s.ReadUint64(a)
	return Addr(v), err
}

// WriteAddr stores the simulated pointer v at a.
func (s *Space) WriteAddr(a Addr, v Addr) error {
	return s.WriteUint64(a, uint64(v))
}
