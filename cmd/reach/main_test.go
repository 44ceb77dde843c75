package main

import "testing"

// TestKeptListNamesFunctions checks DESIGN.md's kept list without
// running anything: every entry names a non-test function declared in
// the tree under that file and name, and gives a reason. A deletion
// that leaves its entry behind fails here, not only under make reach.
func TestKeptListNamesFunctions(t *testing.T) {
	kept, err := readKept("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) == 0 {
		t.Fatal("DESIGN.md's kept list is empty")
	}
	funcs, err := inventory("../..")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[funcKey]bool{}
	for _, f := range funcs {
		declared[f.key] = true
	}
	for k, reason := range kept {
		if !declared[k] {
			t.Errorf("kept list names %s, which is not a function in the tree", k)
		}
		if reason == "" {
			t.Errorf("kept list gives %s no reason", k)
		}
	}
}
