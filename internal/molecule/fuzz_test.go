package molecule

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadPDB checks that arbitrary input never panics the PDB parser and
// that anything it accepts is a valid molecule that survives a write/read
// round trip.
func FuzzReadPDB(f *testing.F) {
	f.Add(samplePDB)
	f.Add("ATOM      1  N   ALA A   1      11.104   6.134  -6.504  1.00  0.00           N\n")
	f.Add("HEADER    X\nEND\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		m, err := ReadPDB(strings.NewReader(input))
		if err != nil {
			return
		}
		if m.NumAtoms() == 0 {
			t.Fatal("accepted a molecule with no atoms")
		}
		for _, a := range m.Atoms {
			if !a.Pos.IsFinite() {
				// Parsers may admit inf/NaN literals; Validate must
				// catch them so downstream code can rely on it.
				if m.Validate() == nil {
					t.Fatal("Validate passed a non-finite coordinate")
				}
				return
			}
		}
		var buf bytes.Buffer
		if err := WritePDB(&buf, m); err != nil {
			// The fixed-column PDB format cannot represent every parsed
			// coordinate; refusing is correct, corrupting output is not.
			return
		}
		if _, err := ReadPDB(&buf); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}
