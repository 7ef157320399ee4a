package gridrealloc_test

// Per-pair digest pins: every reallocation algorithm crossed with every
// heuristic of the paper, each folded over two months, both platform
// variants and both batch policies. TestABDigest covers only a subset of
// the pairs; these constants make a change in any pair's decisions fail
// loudly and name the pair.
//
//	go test -run TestPairDigests -v .

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	gridrealloc "gridrealloc"
)

// pairDigests holds the first 16 hex digits of each algorithm/heuristic
// pair's digest.
var pairDigests = map[string]string{
	"realloc/Mct":               "cf2cb2dfebcc3794",
	"realloc/MinMin":            "edebf614d8578036",
	"realloc/MaxMin":            "d4f030eb274c8690",
	"realloc/MaxGain":           "b0ad01eadc14e14f",
	"realloc/MaxRelGain":        "b5a06e9a2b405b46",
	"realloc/Sufferage":         "3b582be6772c464b",
	"realloc-cancel/Mct":        "2dd2c93992123c1c",
	"realloc-cancel/MinMin":     "3c61b41b1cb019e5",
	"realloc-cancel/MaxMin":     "bf98cef7fab4a5f6",
	"realloc-cancel/MaxGain":    "cc1208cecacdd598",
	"realloc-cancel/MaxRelGain": "3559efa41989d59a",
	"realloc-cancel/Sufferage":  "c071c2523e885cf4",
}

func TestPairDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("pair digests replay 96 simulations")
	}
	var keys []string
	var cfgs []gridrealloc.ScenarioConfig
	for _, alg := range []string{"realloc", "realloc-cancel"} {
		for _, heur := range gridrealloc.HeuristicNames() {
			keys = append(keys, alg+"/"+heur)
			for _, scenario := range []string{"jan", "pwa-g5k"} {
				for _, het := range []string{"homogeneous", "heterogeneous"} {
					for _, policy := range []string{"FCFS", "CBF"} {
						cfgs = append(cfgs, gridrealloc.ScenarioConfig{
							Scenario:      scenario,
							Heterogeneity: het,
							Policy:        policy,
							TraceFraction: 0.01,
							Algorithm:     alg,
							Heuristic:     heur,
						})
					}
				}
			}
		}
	}
	results, err := gridrealloc.RunScenarios(cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	per := len(cfgs) / len(keys)
	for k, key := range keys {
		h := sha256.New()
		for i := k * per; i < (k+1)*per; i++ {
			digestResult(h, cfgs[i], results[i])
		}
		got := hex.EncodeToString(h.Sum(nil))[:16]
		if want := pairDigests[key]; got != want {
			t.Errorf("%s: digest %s, want %s", key, got, want)
		}
	}
}
