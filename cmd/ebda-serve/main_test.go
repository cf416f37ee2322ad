package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParsePeers(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		want       map[string]string
		err        string
	}{
		{name: "empty", spec: "", want: map[string]string{}},
		{
			name: "valid",
			spec: "r1=127.0.0.1:8424, r2=https://peer.example:443",
			want: map[string]string{"r1": "http://127.0.0.1:8424", "r2": "https://peer.example:443"},
		},
		{name: "http default", spec: "r1=host:1", want: map[string]string{"r1": "http://host:1"}},
		{name: "duplicate name", spec: "r1=a:1,r1=b:2", err: `duplicate peer "r1"`},
		{name: "missing address", spec: "r1=", err: "malformed peer"},
		{name: "missing name", spec: "=a:1", err: "malformed peer"},
		{name: "no separator", spec: "r1=a:1,r2", err: `malformed peer "r2"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parsePeers(tc.spec)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("parsePeers(%q) err = %v, want %q", tc.spec, err, tc.err)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parsePeers(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
			}
		})
	}
}

func TestClusterConfigRejectsSelfAsPeer(t *testing.T) {
	peers := map[string]string{"r0": "http://a:1", "r1": "http://b:2"}
	if _, err := clusterConfig("r0", peers, false); err == nil || !strings.Contains(err.Error(), "names this replica") {
		t.Fatalf("err = %v, want -peers naming this replica rejected", err)
	}
}

func TestClusterConfigRingAgreement(t *testing.T) {
	// Every replica launched with the same member list — itself plus the
	// others as peers — must build the same ring.
	addrs := map[string]string{"r0": "http://a:1", "r1": "http://b:2", "r2": "http://c:3"}
	var fingerprint uint64
	for self := range addrs {
		peers := map[string]string{}
		for name, url := range addrs {
			if name != self {
				peers[name] = url
			}
		}
		cfg, err := clusterConfig(self, peers, true)
		if err != nil {
			t.Fatalf("%s: %v", self, err)
		}
		if cfg.Self != self || !cfg.NoForward || cfg.Ring.Size() != len(addrs) {
			t.Fatalf("%s: config %+v", self, cfg)
		}
		if fingerprint == 0 {
			fingerprint = cfg.Ring.Fingerprint()
		} else if got := cfg.Ring.Fingerprint(); got != fingerprint {
			t.Fatalf("%s: ring fingerprint %x, want %x", self, got, fingerprint)
		}
	}
	// A different member list builds a different ring.
	cfg, err := clusterConfig("r0", map[string]string{"r1": "http://b:2"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Ring.Fingerprint() == fingerprint {
		t.Fatal("a two-member ring shares the three-member ring's fingerprint")
	}
}
