package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// defaultSeed is the seed a run uses without --seed; heldOutSeed is a seed
// no change was tuned on, for re-checking a claim. expected.json holds the
// call digests of both for every workload.
const (
	defaultSeed = 1
	heldOutSeed = 104729
)

//go:embed expected.json
var expectedJSON []byte

// expectedFile is the layout of expected.json.
type expectedFile struct {
	DefaultSeed int64                          `json:"default_seed"`
	HeldOutSeed int64                          `json:"held_out_seed"`
	Digests     map[string]map[string][]string `json:"digests"` // workload -> seed -> per-call hex digests
}

// expectedDigests returns the recorded call digests of a workload for a
// seed, if expected.json has them.
func expectedDigests(workload string, seed int64) ([]uint64, bool) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, false
	}
	hexes, ok := f.Digests[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return nil, false
	}
	out := make([]uint64, len(hexes))
	for i, h := range hexes {
		v, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// emitDigests runs one untimed pass and prints its call digests as the
// expected.json fragment for the workload and seed.
func emitDigests(w workloadSpec, seed int64) error {
	in := w.setup(seed, nil, 0)
	p := runPass(in, false, nil)
	hexes := make([]string, len(p.outs))
	for i, o := range p.outs {
		if o.err != nil {
			return fmt.Errorf("%s call %s: %w", w.name, in.calls[i].name, o.err)
		}
		hexes[i] = fmt.Sprintf("%016x", o.digest)
	}
	b, err := json.Marshal(map[string]map[string][]string{w.name: {strconv.FormatInt(seed, 10): hexes}})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
