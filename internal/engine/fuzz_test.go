package engine

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzSnapshotDecode asserts the snapshot loader never panics on
// arbitrary bytes: any input either decodes to a snapshot whose groups
// build (or fail with an error), or is rejected with a wrapped
// ErrSnapshotCorrupt / ErrSnapshotFormat.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"format": 2}`))
	f.Add([]byte(`{"format": 99, "groups": []}`))
	f.Add([]byte(`{"format": 2, "model": 1, "selector": "wefr",` +
		` "groups": [{"features": ["MWI_N"], "predictor": 1, "flat_data": "AAEC"}],` +
		` "thresholds": [0.5], "trained_through": 600, "config_hash": "abcd"}`))
	f.Add([]byte(`{"format": 2, "groups": [{"features": ["not-a-feature"]}], "thresholds": [0.1]}`))
	// A format-1 artifact, which also carried a gob pointer model.
	f.Add([]byte(`{"format": 1, "model": 1, "selector": "wefr",` +
		` "groups": [{"features": ["MWI_N"], "predictor": 1, "model_data": "AAEC", "flat_data": "AAEC"}],` +
		` "thresholds": [0.5], "trained_through": 600, "config_hash": "abcd"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("unexpected error class: %v", err)
			}
			if json.Valid(data) && errors.Is(err, ErrSnapshotCorrupt) {
				// Valid JSON can still be corrupt (wrong field types),
				// but must never be misreported as a format error and
				// vice versa; nothing further to check here.
				_ = err
			}
			return
		}
		// A decodable snapshot must survive group reconstruction
		// without panicking; errors (bad features, bogus model payloads)
		// are fine.
		_, _ = snap.buildGroups(1)
	})
}
