package flat

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// encodedEnsemble is the gob wire form shared by the compiled types.
// Trees are stored with code-column indices (not block offsets) so the
// kernel's block geometry can change without breaking payloads.
type encodedEnsemble struct {
	// Cuts[c] is code column c's ascending cut run; Source[c] is the
	// input column it quantizes.
	Cuts      [][]float64
	Source    []int32
	NFeatures int
	Trees     []encodedFlatTree
}

type encodedFlatTree struct {
	Column []int32 // code column; -1 for leaves
	Bin    []uint8
	MissL  []uint8
	Left   []int32
	Value  []float64
}

type encodedFlatForest struct {
	E encodedEnsemble
}

type encodedFlatModel struct {
	E    encodedEnsemble
	Base float64
	Eta  float64
}

func (e *ensemble) encode() encodedEnsemble {
	out := encodedEnsemble{Cuts: e.q.cuts, Source: e.q.src, NFeatures: e.nFeatures}
	for i := range e.trees {
		t := &e.trees[i]
		et := encodedFlatTree{
			Column: make([]int32, len(t.featOff)),
			Bin:    t.bin,
			MissL:  t.missL,
			Left:   t.left,
			Value:  t.value,
		}
		for j, fo := range t.featOff {
			if fo < 0 {
				et.Column[j] = -1
			} else {
				et.Column[j] = fo >> blockShift
			}
		}
		out.Trees = append(out.Trees, et)
	}
	return out
}

func decodeEnsemble(enc encodedEnsemble) (ensemble, error) {
	nCols := len(enc.Cuts)
	if enc.NFeatures <= 0 || enc.NFeatures > maxFeatures || nCols > maxColumns || len(enc.Source) != nCols {
		return ensemble{}, fmt.Errorf("%w: %d features, %d cut runs, %d sources", ErrBadEncoding, enc.NFeatures, nCols, len(enc.Source))
	}
	if len(enc.Trees) == 0 {
		return ensemble{}, fmt.Errorf("%w: no trees", ErrBadEncoding)
	}
	q := newQuantizer(nCols)
	for c, cs := range enc.Cuts {
		src := enc.Source[c]
		if src < 0 || int(src) >= enc.NFeatures {
			return ensemble{}, fmt.Errorf("%w: code column %d reads input %d of %d", ErrBadEncoding, c, src, enc.NFeatures)
		}
		q.src[c] = src
		if len(cs) == 0 {
			continue
		}
		if len(cs) > maxCuts {
			return ensemble{}, fmt.Errorf("%w: code column %d has %d cuts", ErrBadEncoding, c, len(cs))
		}
		if cs[0] != cs[0] {
			return ensemble{}, fmt.Errorf("%w: code column %d has NaN cut", ErrBadEncoding, c)
		}
		for i := 1; i < len(cs); i++ {
			// Also rejects NaN anywhere past index 0.
			if !(cs[i-1] < cs[i]) {
				return ensemble{}, fmt.Errorf("%w: code column %d cuts not ascending", ErrBadEncoding, c)
			}
		}
		q.setColumn(c, src, cs)
	}
	e := ensemble{q: q, nFeatures: enc.NFeatures}
	for ti, et := range enc.Trees {
		n := len(et.Column)
		if n == 0 || len(et.Bin) != n || len(et.MissL) != n || len(et.Left) != n || len(et.Value) != n {
			return ensemble{}, fmt.Errorf("%w: tree %d misaligned", ErrBadEncoding, ti)
		}
		ft := flatTree{
			featOff: make([]int32, n),
			bin:     et.Bin,
			missL:   et.MissL,
			left:    et.Left,
			value:   et.Value,
		}
		for i := 0; i < n; i++ {
			c := et.Column[i]
			if c < 0 {
				ft.featOff[i] = -1
				continue
			}
			if int(c) >= nCols || int(et.Bin[i]) >= len(q.cuts[c]) {
				return ensemble{}, fmt.Errorf("%w: tree %d node %d splits code column %d bin %d", ErrBadEncoding, ti, i, c, et.Bin[i])
			}
			l := et.Left[i]
			// Children always follow their parent (BFS compile order)
			// and siblings are adjacent, so traversal terminates.
			if l <= int32(i) || l+1 >= int32(n) {
				return ensemble{}, fmt.Errorf("%w: tree %d node %d child %d", ErrBadEncoding, ti, i, l)
			}
			ft.featOff[i] = c << blockShift
		}
		e.trees = append(e.trees, ft)
	}
	return e, nil
}

// MarshalBinary serializes the compiled forest. Workers is runtime
// configuration and is not persisted.
func (f *Forest) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(encodedFlatForest{E: f.e.encode()}); err != nil {
		return nil, fmt.Errorf("flat: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalForest reconstructs a compiled forest; predictions are
// bit-identical to the forest that was marshalled.
func UnmarshalForest(data []byte) (*Forest, error) {
	var enc encodedFlatForest
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&enc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	e, err := decodeEnsemble(enc.E)
	if err != nil {
		return nil, err
	}
	return &Forest{e: e}, nil
}

// MarshalBinary serializes the compiled boosted model. Workers is
// runtime configuration and is not persisted.
func (m *Model) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	enc := encodedFlatModel{E: m.e.encode(), Base: m.base, Eta: m.eta}
	if err := gob.NewEncoder(&buf).Encode(enc); err != nil {
		return nil, fmt.Errorf("flat: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalModel reconstructs a compiled boosted model; predictions are
// bit-identical to the model that was marshalled.
func UnmarshalModel(data []byte) (*Model, error) {
	var enc encodedFlatModel
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&enc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	e, err := decodeEnsemble(enc.E)
	if err != nil {
		return nil, err
	}
	return &Model{e: e, base: enc.Base, eta: enc.Eta}, nil
}
