package main

import "testing"

// TestDigestRepeats runs a workload's set-up and timed phase twice on
// one seed: the simulated-state digest and the simulated metrics must
// come out bit-identical, however the host scheduled the fleet's
// workers.
func TestDigestRepeats(t *testing.T) {
	for _, w := range workloads {
		if w.name == "sqldb-online" && testing.Short() {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			var reps [2]*rep
			for i := range reps {
				timed, err := w.setup(7, &meter{})
				if err != nil {
					t.Fatal(err)
				}
				reps[i] = timed(&meter{})
			}
			a, b := reps[0], reps[1]
			if a.digest != b.digest {
				t.Errorf("digest %016x then %016x", a.digest, b.digest)
			}
			if a.speedup != b.speedup || a.p50us != b.p50us || a.p99us != b.p99us || a.pauseMS != b.pauseMS {
				t.Errorf("simulated metrics differ: %+v vs %+v", a, b)
			}
			if a.speedup == 0 || a.insts == 0 {
				t.Errorf("nothing simulated: speedup %v, %d insts", a.speedup, a.insts)
			}
		})
	}
}

func TestSeededZeroIsIdentity(t *testing.T) {
	w, err := sqldbOnline().build()
	if err != nil {
		t.Fatal(err)
	}
	d, err := w.NewDriver("read_only", 2)
	if err != nil {
		t.Fatal(err)
	}
	gen := d.Generator()
	same, shifted := seeded(gen, 0), seeded(gen, 1)
	moved := false
	for seq := uint64(0); seq < 64; seq++ {
		if same(1, seq) != gen(1, seq) {
			t.Fatalf("seed 0 changed request %d", seq)
		}
		moved = moved || shifted(1, seq) != gen(1, seq)
	}
	if !moved {
		t.Error("seed 1 left the request stream unchanged")
	}
}

func TestSelfTimes(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 1, Name: "timed", Layer: "bench", Rep: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "proc.RunFor", Layer: "proc", Rep: 1, Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "Controller.Profile", Layer: "perf", Rep: 1, Start: 4, End: 6},
		{ID: 4, Name: "other rep", Layer: "bench", Rep: 2, Start: 0, End: 99},
	}}
	got := r.selfTimes(1)
	want := map[string]float64{"bench": 5, "proc": 3, "perf": 2}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self %s = %v, want %v", k, got[k], v)
		}
	}
}
