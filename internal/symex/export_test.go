package symex

import (
	"encoding/json"

	"esd/internal/mir"
)

// EncodePool serializes roots (frontier states, in order) and everything
// they reach into a pool of its own.
func EncodePool(roots []*State) Pool { return AppendPool(nil, roots, 0) }

// ReferenceEncode writes the pool of roots with the reference codec
// (reference_test.go): the bytes EncodePool must write.
func ReferenceEncode(roots []*State) ([]byte, error) {
	return json.Marshal(referenceEncode(roots))
}

// ReferenceDecode reads a pool with the reference codec: the states
// Pool.Decode must build.
func ReferenceDecode(data []byte, prog *mir.Program) ([]*State, error) {
	var p SerialPool
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	return p.decode(prog)
}

// HoldsToken reports whether st holds a copy-on-write token: whether it
// is not frozen.
func (st *State) HoldsToken() bool { return st.Mem.self != nil }

// HoldsParts reports whether every thread of st and its sync maps carry
// st's token, so that st writes them in place.
func (st *State) HoldsParts() bool {
	for _, t := range st.Threads {
		if !st.Mem.self.holds(t.owner) {
			return false
		}
	}
	return st.Mem.self.holds(st.syncOwner)
}

// GlobalIDs returns the state's global-name map, which states of one
// lineage share.
func (st *State) GlobalIDs() map[string]int { return st.globalIDs }
