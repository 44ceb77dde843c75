package vmem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The dense reference model of a Space: every mapped page owns (or,
// aliased, shares) a full page of bytes from the moment it is mapped,
// so "untouched" exists in the model only as a flag — the page the
// implementation must not have given a frame yet.

const (
	modelVPN0   = 16 // first page of the window the sequences use
	modelPages  = 32
	modelResLo  = 20 // reserved pages [modelResLo, modelResHi)
	modelResHi  = 28
	modelSpare  = 10 // pages that may be mapped outside the reservation
	modelMaxRun = 6  // longest Map/Unmap/Protect/... range, in pages
)

type refFrame struct {
	data    [PageSize]byte
	dirty   bool
	touched bool // the implementation must hold a frame for it
}

type refPage struct {
	f    *refFrame
	prot Prot
}

type denseModel struct {
	pages   map[uint64]*refPage
	outside uint64
}

func pageAddr(vpn uint64) Addr { return Addr(vpn << PageShift) }

func inModelReservation(vpn uint64) bool { return vpn >= modelResLo && vpn < modelResHi }

// errKey renders an error so the model's and the space's can be
// compared: a Fault by its op, address and reason.
func errKey(err error) string {
	var f *Fault
	var ex *ErrExhausted
	switch {
	case err == nil:
		return ""
	case errors.As(err, &f):
		return fmt.Sprintf("fault %s at %s (%s)", f.Op, f.Addr, f.Reason)
	case errors.As(err, &ex):
		return "exhausted"
	}
	return err.Error()
}

func (m *denseModel) firstMissing(vpn, n uint64, op AccessOp, reason string) string {
	for v := vpn; v < vpn+n; v++ {
		if m.pages[v] == nil {
			return errKey(&Fault{Op: op, Addr: pageAddr(v), Reason: reason})
		}
	}
	return ""
}

// mapRange is Map (frames nil) and MapFrames.
func (m *denseModel) mapRange(vpn, n uint64, prot Prot, frames []*refFrame) string {
	outside := uint64(0)
	for v := vpn; v < vpn+n; v++ {
		if m.pages[v] != nil {
			return errKey(&Fault{Op: OpMap, Addr: pageAddr(v), Reason: "already mapped"})
		}
		if !inModelReservation(v) {
			outside++
		}
	}
	if m.outside+outside > modelSpare {
		return "exhausted"
	}
	for i := uint64(0); i < n; i++ {
		f := &refFrame{}
		if frames != nil {
			f = frames[i]
		}
		m.pages[vpn+i] = &refPage{f: f, prot: prot}
	}
	m.outside += outside
	return ""
}

func (m *denseModel) unmap(vpn, n uint64) string {
	if e := m.firstMissing(vpn, n, OpUnmap, "not mapped"); e != "" {
		return e
	}
	for v := vpn; v < vpn+n; v++ {
		delete(m.pages, v)
		if !inModelReservation(v) {
			m.outside--
		}
	}
	return ""
}

func (m *denseModel) protect(vpn, n uint64, prot Prot) string {
	if e := m.firstMissing(vpn, n, OpMap, "not mapped"); e != "" {
		return e
	}
	for v := vpn; v < vpn+n; v++ {
		m.pages[v].prot = prot
	}
	return ""
}

// frames is Frames: every page of the range gets its frame.
func (m *denseModel) frames(vpn, n uint64) ([]*refFrame, string) {
	if e := m.firstMissing(vpn, n, OpRead, "not mapped"); e != "" {
		return nil, e
	}
	out := make([]*refFrame, n)
	for i := range out {
		out[i] = m.pages[vpn+uint64(i)].f
		out[i].touched = true
	}
	return out, ""
}

// access is Read and Write: page by page, faulting at the first page
// that is unmapped or forbids op, after copying everything before it.
func (m *denseModel) access(a Addr, p []byte, op AccessOp) string {
	need := ProtRead
	if op == OpWrite {
		need = ProtWrite
	}
	for len(p) > 0 {
		pg := m.pages[a.PageNum()]
		switch {
		case pg == nil:
			return errKey(&Fault{Op: op, Addr: a, Reason: "unmapped"})
		case pg.prot&need == 0:
			return errKey(&Fault{Op: op, Addr: a, Reason: "protection"})
		}
		pg.f.touched = true
		var n int
		if op == OpWrite {
			n = copy(pg.f.data[a.Offset():], p)
			pg.f.dirty = true
		} else {
			n = copy(p, pg.f.data[a.Offset():])
		}
		p = p[n:]
		a = a.Add(uint64(n))
	}
	return ""
}

func (m *denseModel) copyOutRuns(vpn, n uint64) ([]Run, string) {
	var runs []Run
	var cur *Run
	for v := vpn; v < vpn+n; v++ {
		pg := m.pages[v]
		if pg == nil || !pg.f.dirty {
			cur = nil
			continue
		}
		if pg.prot&ProtRead == 0 {
			return nil, errKey(&Fault{Op: OpRead, Addr: pageAddr(v), Reason: "protection"})
		}
		if cur == nil {
			runs = append(runs, Run{Addr: pageAddr(v)})
			cur = &runs[len(runs)-1]
		}
		cur.Data = append(cur.Data, pg.f.data[:]...)
	}
	return runs, ""
}

func (m *denseModel) dirtyPages(vpn, n uint64) int {
	c := 0
	for v := vpn; v < vpn+n; v++ {
		if pg := m.pages[v]; pg != nil && pg.f.dirty {
			c++
		}
	}
	return c
}

func (m *denseModel) clearDirty(vpn, n uint64) {
	for v := vpn; v < vpn+n; v++ {
		if pg := m.pages[v]; pg != nil {
			pg.f.dirty = false
		}
	}
}

// restored is RestoreSpace(Snapshot()): every page becomes a private,
// written (so touched and dirty) copy.
func (m *denseModel) restored() {
	for _, pg := range m.pages {
		f := *pg.f
		f.touched, f.dirty = true, true
		pg.f = &f
	}
}

// check compares the space with the model in full: accounting, the
// resident-page count, and — through Snapshot, which touches nothing —
// every mapped page's protection and bytes.
func (m *denseModel) check(t *testing.T, s *Space, where string) {
	t.Helper()
	if got, want := s.VirtualInUse(), uint64(modelResHi-modelResLo+m.outside)*PageSize; got != want {
		t.Fatalf("%s: VirtualInUse %d, model %d", where, got, want)
	}
	if got := s.MappedPages(); got != len(m.pages) {
		t.Fatalf("%s: MappedPages %d, model %d", where, got, len(m.pages))
	}
	resident := 0
	for _, pg := range m.pages {
		if pg.f.touched {
			resident++
		}
	}
	if got := s.ResidentPages(); got != resident {
		t.Fatalf("%s: ResidentPages %d, model %d (a page got a frame before it was touched, or lost one)", where, got, resident)
	}
	im := s.Snapshot()
	if len(im.Pages) != len(m.pages) {
		t.Fatalf("%s: snapshot has %d pages, model %d", where, len(im.Pages), len(m.pages))
	}
	for _, sp := range im.Pages {
		pg := m.pages[sp.VPN]
		if pg == nil || pg.prot != sp.Prot || !bytes.Equal(pg.f.data[:], sp.Data) {
			t.Fatalf("%s: page %#x differs from the model", where, sp.VPN)
		}
	}
	if got := s.ResidentPages(); got != resident {
		t.Fatalf("%s: Snapshot gave %d pages frames", where, got-resident)
	}
}

// TestSpaceMatchesDenseModel runs seeded random sequences of every
// page-table operation against the dense model. The sequences cover
// untouched pages (mapped, never accessed), touched ones, aliases of
// both (Frames + MapFrames at a second address), guard pages (ProtNone,
// which must never get a frame from an access), the reservation's
// accounting, and ErrExhausted past the limit.
func TestSpaceMatchesDenseModel(t *testing.T) {
	prots := []Prot{ProtNone, ProtRead, ProtRW, ProtRW, ProtWrite}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace(uint64(modelResHi-modelResLo+modelSpare) * PageSize)
		if err := s.Reserve(pageAddr(modelResLo), (modelResHi-modelResLo)*PageSize); err != nil {
			t.Fatal(err)
		}
		m := &denseModel{pages: map[uint64]*refPage{}}
		// CopyOutRuns refills one run list and page arena throughout, as
		// a migration scratch image does.
		var outRuns []Run
		var outPages []byte
		// span is a random range; spanOf, three times in four, a range
		// starting at a page whose mappedness is mapped and running while
		// it stays so — ranges that mostly succeed, so the window keeps
		// changing instead of filling up with failed calls.
		span := func() (uint64, uint64) {
			n := uint64(1 + rng.Intn(modelMaxRun))
			return modelVPN0 + uint64(rng.Intn(modelPages-int(n)+1)), n
		}
		spanOf := func(mapped bool) (uint64, uint64) {
			vpn, n := span()
			if rng.Intn(4) == 0 {
				return vpn, n
			}
			for try := 0; try < modelPages && (m.pages[vpn] != nil) != mapped; try++ {
				vpn = modelVPN0 + uint64(rng.Intn(modelPages))
			}
			k := uint64(1)
			for k < n && vpn+k < modelVPN0+modelPages && (m.pages[vpn+k] != nil) == mapped {
				k++
			}
			return vpn, k
		}
		byteRange := func() (Addr, []byte) {
			vpn, _ := spanOf(true)
			a := pageAddr(vpn).Add(uint64(rng.Intn(PageSize)))
			p := make([]byte, 1+rng.Intn(3*PageSize))
			return a, p
		}
		for step := 0; step < 300; step++ {
			var op, got, want string
			switch k := rng.Intn(100); {
			case k < 20:
				vpn, n := spanOf(false)
				prot := prots[rng.Intn(len(prots))]
				op = fmt.Sprintf("Map(%#x, %d, %s)", vpn, n, prot)
				got, want = errKey(s.Map(pageAddr(vpn), n*PageSize, prot)), m.mapRange(vpn, n, prot, nil)
			case k < 33:
				vpn, n := spanOf(true)
				op = fmt.Sprintf("Unmap(%#x, %d)", vpn, n)
				got, want = errKey(s.Unmap(pageAddr(vpn), n*PageSize)), m.unmap(vpn, n)
			case k < 42:
				vpn, n := spanOf(true)
				prot := prots[rng.Intn(len(prots))]
				op = fmt.Sprintf("Protect(%#x, %d, %s)", vpn, n, prot)
				got, want = errKey(s.Protect(pageAddr(vpn), n*PageSize, prot)), m.protect(vpn, n, prot)
			case k < 62:
				a, p := byteRange()
				rng.Read(p)
				op = fmt.Sprintf("Write(%s, %d)", a, len(p))
				got, want = errKey(s.Write(a, p)), m.access(a, p, OpWrite)
			case k < 75:
				a, p := byteRange()
				ref := make([]byte, len(p))
				op = fmt.Sprintf("Read(%s, %d)", a, len(p))
				got, want = errKey(s.Read(a, p)), m.access(a, ref, OpRead)
				if got == "" && want == "" && !bytes.Equal(p, ref) {
					t.Fatalf("seed %d step %d: %s read bytes that differ from the model", seed, step, op)
				}
			case k < 86:
				src, n := spanOf(true)
				dst, dn := spanOf(false)
				n = min(n, dn)
				prot := prots[rng.Intn(len(prots))]
				op = fmt.Sprintf("alias(%#x → %#x, %d, %s)", src, dst, n, prot)
				fs, err := s.Frames(pageAddr(src), n*PageSize)
				refs, werr := m.frames(src, n)
				got, want = errKey(err), werr
				if got == "" && want == "" {
					got, want = errKey(s.MapFrames(pageAddr(dst), fs, prot)), m.mapRange(dst, n, prot, refs)
				}
			case k < 98:
				vpn, n := span()
				switch rng.Intn(3) {
				case 0:
					op = fmt.Sprintf("CopyOutRuns(%#x, %d)", vpn, n)
					runs, pages, err := s.CopyOutRuns(outRuns[:0], outPages[:0], pageAddr(vpn), n*PageSize)
					outRuns, outPages = runs, pages
					ref, werr := m.copyOutRuns(vpn, n)
					got, want = errKey(err), werr
					if got == "" && want == "" && fmt.Sprint(runs) != fmt.Sprint(ref) {
						t.Fatalf("seed %d step %d: %s = %d runs, model %d", seed, step, op, len(runs), len(ref))
					}
				case 1:
					op = fmt.Sprintf("DirtyPages(%#x, %d)", vpn, n)
					got, want = fmt.Sprint(s.DirtyPages(pageAddr(vpn), n*PageSize)), fmt.Sprint(m.dirtyPages(vpn, n))
				default:
					op = fmt.Sprintf("ClearDirty(%#x, %d)", vpn, n)
					s.ClearDirty(pageAddr(vpn), n*PageSize)
					m.clearDirty(vpn, n)
				}
			default:
				op = "RestoreSpace(Snapshot())"
				s2, err := RestoreSpace(s.Snapshot())
				if err != nil {
					t.Fatalf("seed %d step %d: %s: %v", seed, step, op, err)
				}
				s = s2
				m.restored()
			}
			if got != want {
				t.Fatalf("seed %d step %d: %s = %q, model %q", seed, step, op, got, want)
			}
			if step%10 == 0 {
				m.check(t, s, fmt.Sprintf("seed %d step %d after %s", seed, step, op))
			}
		}
		m.check(t, s, fmt.Sprintf("seed %d end", seed))
	}
}

// TestSpaceModelRacingReaders races lock-free readers against a
// faulting writer on one Space. The readers stream through pages that
// were written before they started (served from cached extents, no
// lock) and through pages nobody writes, which they fault in
// themselves, several at once. Meanwhile the writer maps fresh regions,
// faults them in with one large write each, checks them and unmaps
// them, so the readers' extents keep going stale. Every reader sees
// exactly its bytes, and the footprint ends as the model says. Run it
// under -race.
func TestSpaceModelRacingReaders(t *testing.T) {
	const (
		readers   = 3
		hotPages  = 16
		coldPages = 16
		rounds    = 200
		freshPg   = 24
	)
	s := NewSpace(0)
	hot, cold := pageAddr(0x100), pageAddr(0x200)
	if err := s.Map(hot, hotPages*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(cold, coldPages*PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	pattern := func(seed, n int) []byte {
		p := make([]byte, n)
		rand.New(rand.NewSource(int64(seed))).Read(p)
		return p
	}
	hotData := pattern(0, hotPages*PageSize)
	if err := s.Write(hot, hotData); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r + 1)))
			buf := make([]byte, 3*PageSize)
			for i := 0; i < rounds; i++ {
				off := rng.Intn(hotPages*PageSize - len(buf))
				if err := s.Read(hot.Add(uint64(off)), buf); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, hotData[off:off+len(buf)]) {
					errs <- fmt.Errorf("reader %d: hot bytes at +%d changed", r, off)
					return
				}
				off = rng.Intn(coldPages*PageSize - len(buf))
				if err := s.Read(cold.Add(uint64(off)), buf); err != nil {
					errs <- err
					return
				}
				for _, b := range buf {
					if b != 0 {
						errs <- fmt.Errorf("reader %d: untouched page at +%d reads %#x, not zero", r, off, b)
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			at := pageAddr(0x1000 + uint64(i%4)*0x100)
			data := pattern(i+100, freshPg*PageSize-PageSize/2)
			got := make([]byte, len(data))
			switch {
			case s.Map(at, freshPg*PageSize, ProtRW) != nil:
				errs <- fmt.Errorf("writer: Map of round %d failed", i)
			case s.Write(at.Add(PageSize/2), data) != nil, s.Read(at.Add(PageSize/2), got) != nil:
				errs <- fmt.Errorf("writer: access in round %d failed", i)
			case !bytes.Equal(got, data):
				errs <- fmt.Errorf("writer: round %d read back other bytes", i)
			case s.Unmap(at, freshPg*PageSize) != nil:
				errs <- fmt.Errorf("writer: Unmap of round %d failed", i)
			default:
				continue
			}
			return
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The hot pages were touched by the first write; the readers
	// touched every cold page they read — with 200 random 3-page reads
	// each, all sixteen.
	if got := s.ResidentPages(); got != hotPages+coldPages {
		t.Errorf("ResidentPages %d after the race, want %d", got, hotPages+coldPages)
	}
}
