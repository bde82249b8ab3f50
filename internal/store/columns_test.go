package store

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/smart"
)

// sparseSource drops one feature from every fourth drive, so the
// partition's feature order has columns some drives leave nil.
type sparseSource struct {
	dataset.Source
	drop smart.Feature
}

func (s sparseSource) Series(ref dataset.DriveRef) (map[smart.Feature][]float64, int, error) {
	cols, last, err := s.Source.Series(ref)
	if err != nil || ref.ID%4 != 1 {
		return cols, last, err
	}
	out := make(map[smart.Feature][]float64, len(cols))
	for ft, col := range cols {
		if ft != s.drop {
			out[ft] = col
		}
	}
	return out, last, nil
}

// requireReaderMatchesSeries checks that a ColumnReader returns, for
// every drive, exactly the columns Series does (same cells, same
// horizon truncation, nil for absent features) and the same last day.
func requireReaderMatchesSeries(t *testing.T, snap *Snapshot, r *ColumnReader, feats []smart.Feature, label string) {
	t.Helper()
	dst := make([][]float64, len(feats))
	for i, ref := range snap.DrivesOf(smart.MC1) {
		series, wantLast, err := snap.Series(ref)
		if err != nil {
			t.Fatal(err)
		}
		last, err := r.Read(i, dst)
		if err != nil {
			t.Fatalf("%s: drive %d: %v", label, ref.ID, err)
		}
		if last != wantLast {
			t.Fatalf("%s: drive %d: last day %d, Series says %d", label, ref.ID, last, wantLast)
		}
		for k, ft := range feats {
			want, got := series[ft], dst[k]
			if (want == nil) != (got == nil) || len(want) != len(got) || cap(got) != len(got) {
				t.Fatalf("%s: drive %d %v: %d cells (nil %v), Series %d (nil %v)", label, ref.ID, ft, len(got), got == nil, len(want), want == nil)
			}
			for d := range want {
				if &want[d] != &got[d] {
					t.Fatalf("%s: drive %d %v day %d is not the store's cell", label, ref.ID, ft, d)
				}
			}
		}
	}
}

// TestColumnReaderMatchesSeries pins the position-addressed reader to
// Series on in-memory partitions (with features some drives lack and
// one no drive reports), on spilled partitions, and across a Spill
// that happens after the reader was built.
func TestColumnReaderMatchesSeries(t *testing.T) {
	poh := smart.Feature{Attr: smart.POH, Kind: smart.Raw}
	feats := []smart.Feature{
		poh,
		{Attr: smart.MWI, Kind: smart.Normalized},
		{Attr: smart.TLW, Kind: smart.Raw}, // MC1 does not report it
		{Attr: smart.UCE, Kind: smart.Raw},
	}

	sparse := Open(sparseSource{Source: testFleet(t), drop: poh}, Options{})
	if err := sparse.AppendThrough(59); err != nil {
		t.Fatal(err)
	}
	snap := sparse.Snapshot()
	r, err := snap.Columns(smart.MC1, feats)
	if err != nil {
		t.Fatal(err)
	}
	requireReaderMatchesSeries(t, snap, r, feats, "in-memory")

	st := Open(testFleet(t), Options{SpillDir: t.TempDir()})
	defer st.Close()
	if err := st.AppendThrough(59); err != nil {
		t.Fatal(err)
	}
	if err := st.Track(smart.MC1); err != nil {
		t.Fatal(err)
	}
	snap = st.Snapshot()
	before, err := snap.Columns(smart.MC1, feats)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Spill(); err != nil {
		t.Fatal(err)
	}
	requireReaderMatchesSeries(t, snap, before, feats, "spilled after the reader was built")
	after, err := snap.Columns(smart.MC1, feats)
	if err != nil {
		t.Fatal(err)
	}
	requireReaderMatchesSeries(t, snap, after, feats, "spilled")
}
