package main

import (
	"testing"
)

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig(20, "0.01,0.1", 500, 0.5, "1,10", 2, "Roaring,VB", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Domain != 1<<20 || cfg.Ratio != 500 || cfg.RealScale != 0.5 || cfg.Trials != 2 {
		t.Errorf("scalar fields wrong: %+v", cfg)
	}
	if len(cfg.Densities) != 2 || cfg.Densities[0] != 0.01 {
		t.Errorf("densities = %v", cfg.Densities)
	}
	if len(cfg.SFs) != 2 || cfg.SFs[1] != 10 {
		t.Errorf("sfs = %v", cfg.SFs)
	}
	if len(cfg.Codecs) != 2 || cfg.Codecs[0] != "Roaring" {
		t.Errorf("codecs = %v", cfg.Codecs)
	}
}

func TestBuildConfigDefaults(t *testing.T) {
	cfg, err := buildConfig(22, "", 1000, 1.0/64, "1", 3, "", "table")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Densities) != 4 {
		t.Errorf("default densities = %v", cfg.Densities)
	}
	if cfg.Codecs != nil {
		t.Errorf("default codecs should be nil, got %v", cfg.Codecs)
	}
}

func TestBuildConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
	}{
		{"domain too small", func() error { _, err := buildConfig(5, "", 10, 1, "1", 1, "", "table"); return err }},
		{"domain too big", func() error { _, err := buildConfig(40, "", 10, 1, "1", 1, "", "table"); return err }},
		{"bad density", func() error { _, err := buildConfig(20, "abc", 10, 1, "1", 1, "", "table"); return err }},
		{"density out of range", func() error { _, err := buildConfig(20, "1.5", 10, 1, "1", 1, "", "table"); return err }},
		{"bad sf", func() error { _, err := buildConfig(20, "", 10, 1, "x", 1, "", "table"); return err }},
		{"ratio below 1", func() error { _, err := buildConfig(20, "", 0, 1, "1", 1, "", "table"); return err }},
		{"trials below 1", func() error { _, err := buildConfig(20, "", 10, 1, "1", 0, "", "table"); return err }},
		{"scale not positive", func() error { _, err := buildConfig(20, "", 10, 0, "1", 1, "", "table"); return err }},
		{"unknown format", func() error { _, err := buildConfig(20, "", 10, 1, "1", 1, "", "json"); return err }},
	}
	for _, c := range cases {
		if c.run() == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}
