package migrate

import (
	"bytes"
	"testing"

	"migflow/internal/converse"
	"migflow/internal/mem"
	"migflow/internal/platform"
	"migflow/internal/vmem"
)

func newPE(t testing.TB, idx, n int, prof *platform.Profile) *converse.PE {
	t.Helper()
	region, err := mem.NewIsoRegion(mem.DefaultIsoBase, uint64(n)*4096*vmem.PageSize, n)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := converse.NewPE(converse.PEConfig{Index: idx, Profile: prof, IsoRegion: region})
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

func TestByNameAndAll(t *testing.T) {
	want := []string{NameStackCopy, NameIsomalloc, NameMemAlias}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d strategies, want %d", len(all), len(want))
	}
	for i, s := range all {
		if s.Name() != want[i] {
			t.Errorf("All()[%d] is %q, want %q (Table 1 row order)", i, s.Name(), want[i])
		}
	}
}

func TestExclusivity(t *testing.T) {
	if !(StackCopy{}).Exclusive() || !(MemoryAlias{}).Exclusive() {
		t.Error("copy/alias strategies must be exclusive")
	}
	if (Isomalloc{}).Exclusive() {
		t.Error("isomalloc must not be exclusive")
	}
}

// TestStrategyDataPersistence checks, for each technique, that stack
// bytes written while switched in survive switch-out/switch-in — the
// core contract behind "all references to the original stack's data
// remain valid".
func TestStrategyDataPersistence(t *testing.T) {
	const size = 4 * vmem.PageSize
	for _, strat := range All() {
		t.Run(strat.Name(), func(t *testing.T) {
			pe := newPE(t, 0, 1, platform.Opteron())
			ref, err := strat.New(pe, size)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Size() != size {
				t.Errorf("Size = %d", ref.Size())
			}
			if err := strat.SwitchIn(pe, ref, 0); err != nil {
				t.Fatal(err)
			}
			payload := []byte("stack bytes must survive")
			at := ref.Base().Add(size - 64)
			if err := pe.Space.Write(at, payload); err != nil {
				t.Fatal(err)
			}
			used := uint64(64)
			if err := strat.SwitchOut(pe, ref, used); err != nil {
				t.Fatal(err)
			}
			if err := strat.SwitchIn(pe, ref, used); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(payload))
			if err := pe.Space.Read(at, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Errorf("data after switch cycle = %q, want %q", got, payload)
			}
			if err := strat.SwitchOut(pe, ref, used); err != nil {
				t.Fatal(err)
			}
			if err := strat.Release(pe, ref); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExclusiveCanonicalAddress shows the §3.4.1 limitation directly:
// with an exclusive technique, a second thread cannot be switched in
// while the first occupies the canonical stack address.
func TestExclusiveCanonicalAddress(t *testing.T) {
	for _, strat := range []converse.StackStrategy{StackCopy{}, MemoryAlias{}} {
		t.Run(strat.Name(), func(t *testing.T) {
			pe := newPE(t, 0, 1, platform.Opteron())
			a, err := strat.New(pe, vmem.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			b, err := strat.New(pe, vmem.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := strat.SwitchIn(pe, a, 0); err != nil {
				t.Fatal(err)
			}
			if err := strat.SwitchIn(pe, b, 0); err == nil {
				t.Error("two exclusive stacks switched in simultaneously")
			}
			if err := strat.SwitchOut(pe, a, 0); err != nil {
				t.Fatal(err)
			}
			if err := strat.SwitchIn(pe, b, 0); err != nil {
				t.Errorf("switch-in after partner out: %v", err)
			}
			_ = strat.SwitchOut(pe, b, 0)
		})
	}
}

// TestIsomallocConcurrentStacks shows the complementary strength:
// isomalloc stacks are all addressable at once (SMP exploitation).
func TestIsomallocConcurrentStacks(t *testing.T) {
	pe := newPE(t, 0, 1, platform.Opteron())
	s := Isomalloc{}
	a, err := s.New(pe, vmem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.New(pe, vmem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if a.Base() == b.Base() {
		t.Fatal("two isomalloc stacks share an address")
	}
	if err := pe.Space.Write(a.Base(), []byte{1}); err != nil {
		t.Errorf("stack A not addressable: %v", err)
	}
	if err := pe.Space.Write(b.Base(), []byte{2}); err != nil {
		t.Errorf("stack B not addressable: %v", err)
	}
}

// mapped reports whether the page at a is mapped: reading it does not
// fault.
func mapped(s *vmem.Space, a vmem.Addr) bool {
	var b [1]byte
	return s.Read(a, b[:]) == nil
}

// TestVirtualAddressFootprint verifies the §3.4.3 claim: exclusive
// techniques consume canonical-region address space only while a
// thread is switched in, while isomalloc stacks hold their addresses
// permanently.
func TestVirtualAddressFootprint(t *testing.T) {
	pe := newPE(t, 0, 1, platform.Opteron())
	canon := converse.CanonicalStackBase
	for _, strat := range []converse.StackStrategy{StackCopy{}, MemoryAlias{}} {
		ref, err := strat.New(pe, vmem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if mapped(pe.Space, canon) {
			t.Errorf("%s: canonical region mapped before switch-in", strat.Name())
		}
		if err := strat.SwitchIn(pe, ref, 0); err != nil {
			t.Fatal(err)
		}
		if !mapped(pe.Space, canon) {
			t.Errorf("%s: canonical region not mapped while in", strat.Name())
		}
		if err := strat.SwitchOut(pe, ref, 0); err != nil {
			t.Fatal(err)
		}
		if mapped(pe.Space, canon) {
			t.Errorf("%s: canonical region leaked after switch-out", strat.Name())
		}
		_ = strat.Release(pe, ref)
	}
	iso := Isomalloc{}
	ref, err := iso.New(pe, vmem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped(pe.Space, ref.Base()) {
		t.Error("isomalloc stack not permanently mapped")
	}
}

// TestTable1Enforcement pins strategy availability to the platform
// capability matrix at thread-creation time.
func TestTable1Enforcement(t *testing.T) {
	cases := []struct {
		prof  *platform.Profile
		strat converse.StackStrategy
		ok    bool
	}{
		{platform.Opteron(), StackCopy{}, true},
		{platform.MacG5(), StackCopy{}, false},       // "Maybe": no QuickThreads port
		{platform.IA64(), StackCopy{}, false},        // "Maybe"
		{platform.BlueGeneL(), Isomalloc{}, false},   // "No": no mmap
		{platform.BlueGeneL(), MemoryAlias{}, false}, // "Maybe": needs microkernel ext
		{platform.Windows(), Isomalloc{}, false},     // "Maybe": MapViewOfFileEx port
		{platform.MacG5(), Isomalloc{}, true},
		{platform.MacG5(), MemoryAlias{}, true},
	}
	for _, c := range cases {
		pe := newPE(t, 0, 1, c.prof)
		_, err := c.strat.New(pe, vmem.PageSize)
		if c.ok && err != nil {
			t.Errorf("%s on %s: unexpected error %v", c.strat.Name(), c.prof.Name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s on %s: should be refused (Table 1)", c.strat.Name(), c.prof.Name)
		}
	}
}

// TestBGLMicrokernelExtension: memory aliasing is "Maybe" on BG/L by
// default, but the paper's microkernel extension makes it work — on a
// machine with only 40 MB-scale address space where isomalloc is
// impossible.
func TestBGLMicrokernelExtension(t *testing.T) {
	pe := newPE(t, 0, 1, platform.BlueGeneL())
	if _, err := (MemoryAlias{}).New(pe, vmem.PageSize); err == nil {
		t.Fatal("memalias on stock BG/L accepted")
	}
	ext := MemoryAlias{UseMicrokernelExt: true}
	ref, err := ext.New(pe, 2*vmem.PageSize)
	if err != nil {
		t.Fatalf("extension-enabled memalias refused: %v", err)
	}
	if err := ext.SwitchIn(pe, ref, 0); err != nil {
		t.Fatal(err)
	}
	if err := pe.Space.Write(ref.Base(), []byte("bgl")); err != nil {
		t.Fatal(err)
	}
	if err := ext.SwitchOut(pe, ref, 0); err != nil {
		t.Fatal(err)
	}
	// Extract/Install works under the extension too.
	var im converse.StackImage
	if err := ext.Extract(pe, ref, &im); err != nil {
		t.Fatal(err)
	}
	if _, err := ext.Install(pe, &im, ref); err != nil {
		t.Fatal(err)
	}
	// The extension must not smuggle the flag onto machines where the
	// extension does not exist (plain Windows: no HeapRemapExt).
	win := newPE(t, 0, 1, platform.Windows())
	if _, err := ext.New(win, vmem.PageSize); err == nil {
		t.Error("extension flag enabled memalias on a machine without the extension")
	}
}

// TestExtractInstallRoundTrip migrates a bare stack between two PEs
// for each technique and verifies byte-exact restoration.
func TestExtractInstallRoundTrip(t *testing.T) {
	const size = 2 * vmem.PageSize
	for _, strat := range All() {
		t.Run(strat.Name(), func(t *testing.T) {
			region, err := mem.NewIsoRegion(mem.DefaultIsoBase, 8192*vmem.PageSize, 2)
			if err != nil {
				t.Fatal(err)
			}
			mk := func(i int) *converse.PE {
				pe, err := converse.NewPE(converse.PEConfig{Index: i, Profile: platform.Opteron(), IsoRegion: region})
				if err != nil {
					t.Fatal(err)
				}
				return pe
			}
			src, dst := mk(0), mk(1)
			ref, err := strat.New(src, size)
			if err != nil {
				t.Fatal(err)
			}
			if err := strat.SwitchIn(src, ref, 0); err != nil {
				t.Fatal(err)
			}
			base := ref.Base()
			if err := src.Space.WriteUint64(base.Add(128), 0xfeedface); err != nil {
				t.Fatal(err)
			}
			// A self-referential pointer: the crux of §3.4 — it must
			// stay valid without any fixup.
			ptrAt := base.Add(256)
			target := base.Add(512)
			if err := src.Space.WriteAddr(ptrAt, target); err != nil {
				t.Fatal(err)
			}
			if err := src.Space.WriteUint64(target, 0xdeadbeef); err != nil {
				t.Fatal(err)
			}
			if err := strat.SwitchOut(src, ref, size); err != nil {
				t.Fatal(err)
			}
			var im converse.StackImage
			if err := strat.Extract(src, ref, &im); err != nil {
				t.Fatal(err)
			}
			ref2, err := strat.Install(dst, &im, ref)
			if err != nil {
				t.Fatal(err)
			}
			if ref2.Base() != base {
				t.Fatalf("stack moved: %s → %s", base, ref2.Base())
			}
			if err := strat.SwitchIn(dst, ref2, size); err != nil {
				t.Fatal(err)
			}
			if v, err := dst.Space.ReadUint64(base.Add(128)); err != nil || v != 0xfeedface {
				t.Errorf("plain value = %#x/%v", v, err)
			}
			p, err := dst.Space.ReadAddr(ptrAt)
			if err != nil {
				t.Fatal(err)
			}
			// Chase the migrated pointer on the destination.
			if v, err := dst.Space.ReadUint64(p); err != nil || v != 0xdeadbeef {
				t.Errorf("chased pointer = %#x/%v, want 0xdeadbeef", v, err)
			}
		})
	}
}

func TestExtractWhileSwitchedInFails(t *testing.T) {
	for _, strat := range []converse.StackStrategy{StackCopy{}, MemoryAlias{}} {
		pe := newPE(t, 0, 1, platform.Opteron())
		ref, err := strat.New(pe, vmem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := strat.SwitchIn(pe, ref, 0); err != nil {
			t.Fatal(err)
		}
		if err := strat.Extract(pe, ref, &converse.StackImage{}); err == nil {
			t.Errorf("%s: extract while switched in accepted", strat.Name())
		}
	}
}

func TestStackCopyInstallValidation(t *testing.T) {
	pe := newPE(t, 0, 1, platform.Opteron())
	s := StackCopy{}
	if _, err := s.Install(pe, &converse.StackImage{Strategy: NameStackCopy, Base: 0x1234000, Size: vmem.PageSize,
		Runs: []vmem.Run{{Addr: 0x1234000, Data: make([]byte, vmem.PageSize)}}}, nil); err == nil {
		t.Error("mismatched canonical base accepted")
	}
	canonical := uint64(converse.CanonicalStackBase)
	if _, err := s.Install(pe, &converse.StackImage{Strategy: NameStackCopy, Base: canonical, Size: vmem.PageSize,
		Runs: []vmem.Run{{Addr: converse.CanonicalStackBase, Data: []byte{1}}}}, nil); err == nil {
		t.Error("partial-page run accepted")
	}
	if _, err := s.Install(pe, &converse.StackImage{Strategy: NameStackCopy, Base: canonical, Size: vmem.PageSize,
		Runs: []vmem.Run{{Addr: converse.CanonicalStackBase.Add(vmem.PageSize), Data: make([]byte, vmem.PageSize)}}}, nil); err == nil {
		t.Error("out-of-range run accepted")
	}
	if _, err := s.Install(pe, &converse.StackImage{Strategy: NameStackCopy, Base: canonical, Size: vmem.PageSize + 1}, nil); err == nil {
		t.Error("non-page-multiple size accepted")
	}
	a := MemoryAlias{}
	if _, err := a.Install(pe, &converse.StackImage{Strategy: NameMemAlias, Base: 0x40001000, Size: vmem.PageSize,
		Runs: []vmem.Run{{Addr: 0x40001000, Data: make([]byte, vmem.PageSize)}}}, nil); err == nil {
		t.Error("isomalloc-based image accepted by memory aliasing")
	}
	if _, err := a.Install(pe, &converse.StackImage{Strategy: NameMemAlias, Base: canonical, Size: vmem.PageSize,
		Runs: []vmem.Run{{Addr: converse.CanonicalStackBase, Data: []byte{1}}}}, nil); err == nil {
		t.Error("partial-page alias run accepted")
	}
	if _, err := a.Install(pe, &converse.StackImage{Strategy: NameMemAlias, Base: canonical, Size: vmem.PageSize + 1}, nil); err == nil {
		t.Error("non-page-multiple alias size accepted")
	}
}

// TestStrategyNewRejectsPartialPage: all three strategies refuse a
// stack size that is not a whole number of pages — the trailing
// partial page used to be silently truncated by memalias.
func TestStrategyNewRejectsPartialPage(t *testing.T) {
	for _, strat := range All() {
		pe := newPE(t, 0, 1, platform.Opteron())
		if _, err := strat.New(pe, vmem.PageSize+100); err == nil {
			t.Errorf("%s: non-page-multiple stack size accepted", strat.Name())
		}
		if _, err := strat.New(pe, 0); err == nil {
			t.Errorf("%s: zero stack size accepted", strat.Name())
		}
	}
}

func TestDoubleSwitchErrors(t *testing.T) {
	pe := newPE(t, 0, 1, platform.Opteron())
	s := StackCopy{}
	ref, err := s.New(pe, vmem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SwitchOut(pe, ref, 0); err == nil {
		t.Error("switch-out while not in accepted")
	}
	if err := s.SwitchIn(pe, ref, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SwitchIn(pe, ref, 0); err == nil {
		t.Error("double switch-in accepted")
	}
	// Release while switched in cleans up the canonical mapping.
	if err := s.Release(pe, ref); err != nil {
		t.Fatal(err)
	}
	if mapped(pe.Space, converse.CanonicalStackBase) {
		t.Error("release leaked the canonical mapping")
	}
}

// TestIsomallocGuardPage: writing just below the stack base hits the
// PROT_NONE guard instead of a neighbouring slab.
func TestIsomallocGuardPage(t *testing.T) {
	pe := newPE(t, 0, 1, platform.Opteron())
	s := Isomalloc{}
	a, err := s.New(pe, 2*vmem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.New(pe, 2*vmem.PageSize) // adjacent slab above
	if err != nil {
		t.Fatal(err)
	}
	var f *vmem.Fault
	err = pe.Space.Write(a.Base()-8, []byte("overflow"))
	if !errorsAs(err, &f) || f.Reason != "protection" {
		t.Errorf("underflow write: err = %v, want protection fault", err)
	}
	// Writing below b's base likewise faults rather than landing in
	// a's stack.
	if err := pe.Space.Write(b.Base()-8, []byte("overflow")); !errorsAs(err, &f) {
		t.Errorf("neighbour underflow: err = %v, want fault", err)
	}
	// Guard survives migration: extract/install keeps it.
	if err := s.SwitchOut(pe, a, 0); err != nil {
		t.Fatal(err)
	}
	var im converse.StackImage
	if err := s.Extract(pe, a, &im); err != nil {
		t.Fatal(err)
	}
	a2, err := s.Install(pe, &im, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pe.Space.Write(a2.Base()-8, []byte("x")); !errorsAs(err, &f) {
		t.Errorf("guard lost after migration: err = %v", err)
	}
	// Release reclaims guard and stack together.
	if err := s.Release(pe, a2); err != nil {
		t.Fatal(err)
	}
}

func errorsAs(err error, target **vmem.Fault) bool {
	f, ok := err.(*vmem.Fault)
	if ok {
		*target = f
	}
	return ok
}

func TestMemAliasFramesShareNoCopies(t *testing.T) {
	pe := newPE(t, 0, 1, platform.Opteron())
	s := MemoryAlias{}
	ref, err := s.New(pe, vmem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SwitchIn(pe, ref, 0); err != nil {
		t.Fatal(err)
	}
	if err := pe.Space.Write(converse.CanonicalStackBase, []byte("aliased")); err != nil {
		t.Fatal(err)
	}
	if err := s.SwitchOut(pe, ref, 0); err != nil {
		t.Fatal(err)
	}
	// The data lives in the frames even though nothing is mapped.
	ar := ref.(*aliasRef)
	if string(ar.frames[0].Data()[:7]) != "aliased" {
		t.Error("frame does not hold the written data")
	}
}
