// Package mem models the simulated physical address space: a sparse backing
// store (standing in for DRAM contents) plus a bump allocator that workloads
// use to lay out their data structures, including the block-aligned padding
// the Ghostwriter compiler inserts around approximate regions.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Addr is a simulated physical byte address.
type Addr uint64

// pageSize is the granularity of the sparse backing store. It is an
// implementation detail, unrelated to cache block size.
const pageSize = 1 << 12

// arenaPages is how many pages one arena chunk provides; page storage is
// carved from chunks instead of being allocated one GC object per page.
const arenaPages = 16

// Memory is a sparse simulated physical memory. Unwritten bytes read as
// zero. The zero value is ready to use.
//
// The page index stays a map (the address space is genuinely sparse), but
// block-sized protocol accesses hit the same page repeatedly, so a
// single-entry cache in front of it serves the common case without a map
// lookup, and page storage comes from a growable arena. A Memory is not
// safe for concurrent use: a machine touches its backing store from one
// goroutine at a time.
type Memory struct {
	pages map[Addr]*[pageSize]byte
	// Last page resolved; lastPage is nil when lastBase is unset/missing.
	lastBase Addr
	lastPage *[pageSize]byte
	arena    []([pageSize]byte)
}

// New returns an empty memory.
func New() *Memory { return &Memory{pages: make(map[Addr]*[pageSize]byte)} }

func (m *Memory) page(a Addr, create bool) *[pageSize]byte {
	base := a &^ (pageSize - 1)
	if m.lastPage != nil && base == m.lastBase {
		return m.lastPage
	}
	if m.pages == nil {
		m.pages = make(map[Addr]*[pageSize]byte)
	}
	p := m.pages[base]
	if p == nil && create {
		if len(m.arena) == 0 {
			m.arena = make([]([pageSize]byte), arenaPages)
		}
		p = &m.arena[0]
		m.arena = m.arena[1:]
		m.pages[base] = p
	}
	if p != nil {
		m.lastBase, m.lastPage = base, p
	}
	return p
}

// Read copies len(dst) bytes starting at a into dst.
func (m *Memory) Read(a Addr, dst []byte) {
	for len(dst) > 0 {
		off := int(a & (pageSize - 1))
		n := pageSize - off
		if n > len(dst) {
			n = len(dst)
		}
		if p := m.page(a, false); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		a += Addr(n)
	}
}

// Write copies src into memory starting at a.
func (m *Memory) Write(a Addr, src []byte) {
	for len(src) > 0 {
		off := int(a & (pageSize - 1))
		n := pageSize - off
		if n > len(src) {
			n = len(src)
		}
		copy(m.page(a, true)[off:off+n], src[:n])
		src = src[n:]
		a += Addr(n)
	}
}

// ReadUint reads a little-endian unsigned value of the given byte width
// (1, 2, 4, or 8) at a.
func (m *Memory) ReadUint(a Addr, width int) uint64 {
	var buf [8]byte
	m.Read(a, buf[:width])
	return decodeUint(buf[:width])
}

// WriteUint writes a little-endian unsigned value of the given byte width
// (1, 2, 4, or 8) at a.
func (m *Memory) WriteUint(a Addr, width int, v uint64) {
	var buf [8]byte
	encodeUint(buf[:width], v)
	m.Write(a, buf[:width])
}

// decodeUint decodes a little-endian unsigned integer from b
// (len(b) ∈ {1,2,4,8}).
func decodeUint(b []byte) uint64 {
	switch len(b) {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	panic(fmt.Sprintf("mem: unsupported access width %d", len(b)))
}

// encodeUint encodes v little-endian into b (len(b) ∈ {1,2,4,8}).
func encodeUint(b []byte, v uint64) {
	switch len(b) {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	default:
		panic(fmt.Sprintf("mem: unsupported access width %d", len(b)))
	}
}

// DecodeUint exposes little-endian decoding for cache block manipulation.
func DecodeUint(b []byte) uint64 { return decodeUint(b) }

// EncodeUint exposes little-endian encoding for cache block manipulation.
func EncodeUint(b []byte, v uint64) { encodeUint(b, v) }
