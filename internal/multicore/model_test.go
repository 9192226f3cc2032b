package multicore

import (
	"strings"
	"testing"
)

// TestModelTable: Models lists the wire names sorted, each parses back
// to the model that prints it, and an unknown name is rejected with
// every valid name in the error.
func TestModelTable(t *testing.T) {
	names := Models()
	if want := []string{"detailed", "interval", "oneipc"}; strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Models() = %v, want %v", names, want)
	}
	for _, n := range names {
		m, err := ParseModel(n)
		if err != nil || m.String() != n {
			t.Errorf("ParseModel(%q) = %v, %v", n, m, err)
		}
	}
	_, err := ParseModel("one-ipc")
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not list %q", err, n)
		}
	}
}
