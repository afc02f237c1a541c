package exper

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"netscatter/internal/campaign"
	"netscatter/internal/serve"
)

// TestCampaignM1ServeMatchesLocal is the acceptance gate for the
// remote path: M1's grid and R2's churn grid, each run in-process and
// against a live netscatter-serve instance, must merge to
// byte-identical artifacts — the per-AP and trajectory counters the
// renderers read included.
func TestCampaignM1ServeMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment grids against a live service; skipped in -short")
	}
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	exec := &campaign.RemoteExecutor{Client: &serve.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}}

	for _, spec := range []*campaign.Spec{multiAPSpec(quickCfg()), churnSpec(quickCfg())} {
		local, err := runSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		localBytes, err := local.Encode()
		if err != nil {
			t.Fatal(err)
		}
		remote, err := (&campaign.Runner{Spec: spec, Workers: 3, Exec: exec}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		remoteBytes, err := remote.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(localBytes, remoteBytes) {
			t.Fatalf("%s campaign artifact differs between in-process and netscatter-serve execution", spec.Name)
		}
		if spec.Name == "r2-churn" && local.Totals.Reassociations == 0 {
			t.Fatal("churn grid compared no trajectory counters")
		}
	}
}
