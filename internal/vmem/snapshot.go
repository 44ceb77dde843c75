package vmem

import (
	"fmt"
	"sort"

	"migflow/internal/pup"
)

// SpaceImage is the serialized form of an entire address space — what
// process migration ships (§3.3: "Since the entire address space is
// migrated, all the pointers in the user application are still valid
// on the new processor").
type SpaceImage struct {
	Limit        uint64
	Reservations []Range
	Pages        []SpacePage
}

// SpacePage is one mapped page in a SpaceImage.
type SpacePage struct {
	VPN  uint64
	Prot Prot
	Data []byte
}

// Pup implements pup.Pupable.
func (im *SpaceImage) Pup(p *pup.PUPer) error {
	if err := p.Uint64(&im.Limit); err != nil {
		return err
	}
	nr := uint32(len(im.Reservations))
	if err := p.Uint32(&nr); err != nil {
		return err
	}
	if p.IsUnpacking() {
		im.Reservations = make([]Range, nr)
	}
	for i := range im.Reservations {
		start := uint64(im.Reservations[i].Start)
		if err := p.Uint64(&start); err != nil {
			return err
		}
		if err := p.Uint64(&im.Reservations[i].Length); err != nil {
			return err
		}
		im.Reservations[i].Start = Addr(start)
	}
	np := uint32(len(im.Pages))
	if err := p.Uint32(&np); err != nil {
		return err
	}
	if p.IsUnpacking() {
		im.Pages = make([]SpacePage, np)
	}
	for i := range im.Pages {
		if err := p.Uint64(&im.Pages[i].VPN); err != nil {
			return err
		}
		prot := byte(im.Pages[i].Prot)
		if err := p.Byte(&prot); err != nil {
			return err
		}
		im.Pages[i].Prot = Prot(prot)
		if err := p.Bytes(&im.Pages[i].Data); err != nil {
			return err
		}
	}
	return nil
}

// Bytes returns the image's total page payload (for cost models).
func (im *SpaceImage) Bytes() int {
	return len(im.Pages) * PageSize
}

// Snapshot serializes the whole space: limit, reservations, and every
// mapped page with its protection and contents — zeroes for a page
// not yet touched. Aliased frames are deep-copied (the destination
// gets private pages, like fork-and-ship process migration).
func (s *Space) Snapshot() *SpaceImage {
	s.mu.RLock()
	defer s.mu.RUnlock()
	im := &SpaceImage{Limit: s.limit}
	im.Reservations = append(im.Reservations, s.reserved...)
	vpns := make([]uint64, 0, len(s.pages))
	for vpn := range s.pages {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	for _, vpn := range vpns {
		m := s.pages[vpn]
		data := make([]byte, PageSize)
		if m.frame != nil {
			copy(data, m.frame.data[:])
		}
		im.Pages = append(im.Pages, SpacePage{VPN: vpn, Prot: m.prot, Data: data})
	}
	return im
}

// RestoreSpace rebuilds an address space from an image.
func RestoreSpace(im *SpaceImage) (*Space, error) {
	s := NewSpace(im.Limit)
	for _, r := range im.Reservations {
		if err := s.Reserve(r.Start, r.Length); err != nil {
			return nil, fmt.Errorf("vmem: RestoreSpace: %w", err)
		}
	}
	for _, pg := range im.Pages {
		if len(pg.Data) != PageSize {
			return nil, fmt.Errorf("vmem: RestoreSpace: page %#x has %d bytes", pg.VPN, len(pg.Data))
		}
		base := Addr(pg.VPN << PageShift)
		// Map writable to fill, then apply the real protection.
		if err := s.Map(base, PageSize, ProtRW); err != nil {
			return nil, err
		}
		if err := s.Write(base, pg.Data); err != nil {
			return nil, err
		}
		if pg.Prot != ProtRW {
			if err := s.Protect(base, PageSize, pg.Prot); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}
