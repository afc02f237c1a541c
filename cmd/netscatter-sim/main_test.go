package main

import (
	"strings"
	"testing"

	"netscatter/internal/serve"
	"netscatter/internal/sim"
)

// TestValidateFlags pins the CLI's count-flag validation: zero or
// negative -devices/-rounds/-payload/-aps are rejected up front with a
// message naming the offending flag and its value.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name                          string
		devices, rounds, payload, aps int
		wantErr                       string
	}{
		{"defaults ok", 64, 3, 5, 1, ""},
		{"multi-AP ok", 128, 1, 1, 8, ""},
		{"zero devices", 0, 3, 5, 1, "-devices"},
		{"negative devices", -2, 3, 5, 1, "-devices"},
		{"zero rounds", 64, 0, 5, 1, "-rounds"},
		{"zero payload", 64, 3, 0, 1, "-payload"},
		{"zero aps", 64, 3, 5, 0, "-aps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.devices, tc.rounds, tc.payload, tc.aps)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid flags accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name %s", err, tc.wantErr)
			}
		})
	}
}

// TestWorldMatchesServed: the world netscatter-sim builds from its
// flags accumulates the same snapshot as serve.RunLocal for the
// matching deployment config, so a batch run and a served deployment
// of one config report the same rounds.
func TestWorldMatchesServed(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want serve.DeploymentConfig
	}{
		{"defaults", nil, serve.DeploymentConfig{Devices: 64}},
		{"two APs, soft", []string{"-aps", "2", "-soft"},
			serve.DeploymentConfig{Devices: 64, APs: 2, SoftCombining: true}},
		{"two APs, fading", []string{"-aps", "2", "-fading"},
			serve.DeploymentConfig{Devices: 64, APs: 2, Adversity: &serve.AdversityConfig{Correlation: 0.97}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseArgs(tc.args)
			if err != nil {
				t.Fatal(err)
			}
			w, err := serve.BuildWorld(o.deployment())
			if err != nil {
				t.Fatal(err)
			}
			var acc sim.Accumulator
			err = stepRounds(w, o.rounds, func(_ int, st sim.MultiRoundStats) {
				acc.AddMulti(st, o.soft)
			})
			if err != nil {
				t.Fatal(err)
			}
			want, err := serve.RunLocal(tc.want, o.rounds)
			if err != nil {
				t.Fatal(err)
			}
			if got := acc.Snapshot(); got != want {
				t.Fatalf("netscatter-sim world %+v != served %+v", got, want)
			}
		})
	}
}
