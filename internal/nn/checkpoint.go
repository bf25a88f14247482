package nn

import (
	"fmt"

	"acme/internal/checkpoint"
)

// Checkpoint is a serialized snapshot of a module's parameter values,
// keyed by position and verified by name and shape on load.
type Checkpoint struct {
	Names  []string
	Rows   []int
	Cols   []int
	Values [][]float64
}

// Snapshot captures the current parameter values of m.
func Snapshot(m Module) Checkpoint {
	params := m.Params()
	cp := Checkpoint{
		Names:  make([]string, len(params)),
		Rows:   make([]int, len(params)),
		Cols:   make([]int, len(params)),
		Values: make([][]float64, len(params)),
	}
	for i, p := range params {
		cp.Names[i] = p.Name
		cp.Rows[i] = p.Value.Rows
		cp.Cols[i] = p.Value.Cols
		cp.Values[i] = append([]float64(nil), p.Value.Data...)
	}
	return cp
}

// Restore writes the checkpoint's values back into m. The module must
// have the same parameter names and shapes in the same order.
func Restore(m Module, cp Checkpoint) error {
	params := m.Params()
	if len(params) != len(cp.Names) {
		return fmt.Errorf("nn: checkpoint has %d tensors, module has %d", len(cp.Names), len(params))
	}
	for i, p := range params {
		if p.Name != cp.Names[i] {
			return fmt.Errorf("nn: checkpoint tensor %d is %q, module has %q", i, cp.Names[i], p.Name)
		}
		if p.Value.Rows != cp.Rows[i] || p.Value.Cols != cp.Cols[i] {
			return fmt.Errorf("nn: checkpoint tensor %q is %dx%d, module has %dx%d",
				p.Name, cp.Rows[i], cp.Cols[i], p.Value.Rows, p.Value.Cols)
		}
		copy(p.Value.Data, cp.Values[i])
	}
	return nil
}

// SaveCheckpoint writes m's parameters to path inside the versioned,
// CRC-guarded checkpoint envelope, atomically (temp file + rename), so
// a torn or bit-rotted file is detected on load instead of silently
// restoring garbage weights.
func SaveCheckpoint(path string, m Module) error {
	if err := checkpoint.WriteFile(path, checkpoint.CodecGob, Snapshot(m), false); err != nil {
		return fmt.Errorf("nn: save checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads the envelope file at path into m, CRC-verified.
// Anything else — a torn file, or a bare-gob checkpoint from before the
// envelope existed — is an error naming what is wrong with it.
func LoadCheckpoint(path string, m Module) error {
	var cp Checkpoint
	if _, err := checkpoint.ReadFile(path, &cp); err != nil {
		return fmt.Errorf("nn: load checkpoint: %w", err)
	}
	return Restore(m, cp)
}
