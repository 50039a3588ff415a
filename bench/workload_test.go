package main

import (
	"bytes"
	"testing"
)

// TestWorkloadInputsDependOnlyOnSeed checks that a seed always generates the
// same sweep documents and that another seed generates different ones.
func TestWorkloadInputsDependOnlyOnSeed(t *testing.T) {
	docs := func(name string, seed int64) []byte {
		w, err := newWorkload(name, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		d, err := w.docs()
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Join(d, nil)
	}
	for _, name := range workloadNames {
		a, b, c := docs(name, 1), docs(name, 1), docs(name, 2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 generated different documents", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same documents", name)
		}
	}
}
