package storagetest_test

import (
	"testing"

	"durassd/internal/hdd"
	"durassd/internal/sim"
	"durassd/internal/ssd"
	"durassd/internal/storage"
	"durassd/internal/storage/storagetest"
	"durassd/internal/vol"
)

func ssdFactory(prof func(int) ssd.Profile) storagetest.Factory {
	return func(t *testing.T) storagetest.Harness {
		t.Helper()
		eng := sim.New()
		d, err := ssd.New(eng, prof(16))
		if err != nil {
			t.Fatal(err)
		}
		return storagetest.Harness{Eng: eng, Dev: d}
	}
}

func members(t *testing.T, eng *sim.Engine, n int) []storage.Device {
	t.Helper()
	ms := make([]storage.Device, n)
	for i := range ms {
		d, err := ssd.New(eng, ssd.DuraSSD(16))
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = d
	}
	return ms
}

func TestConformance(t *testing.T) {
	suites := []struct {
		name string
		f    storagetest.Factory
	}{
		{"DuraSSD", ssdFactory(ssd.DuraSSD)},
		{"SSD-A", ssdFactory(ssd.SSDA)},
		{"SSD-B", ssdFactory(ssd.SSDB)},
		{"HDD", func(t *testing.T) storagetest.Harness {
			eng := sim.New()
			d, err := hdd.New(eng, hdd.Cheetah15K(64))
			if err != nil {
				t.Fatal(err)
			}
			return storagetest.Harness{Eng: eng, Dev: d}
		}},
		{"Striped", func(t *testing.T) storagetest.Harness {
			eng := sim.New()
			v, err := vol.NewStriped(eng, members(t, eng, 4), 4)
			if err != nil {
				t.Fatal(err)
			}
			return storagetest.Harness{Eng: eng, Dev: v}
		}},
		{"Mirror", func(t *testing.T) storagetest.Harness {
			eng := sim.New()
			v, err := vol.NewMirror(eng, members(t, eng, 2))
			if err != nil {
				t.Fatal(err)
			}
			return storagetest.Harness{Eng: eng, Dev: v}
		}},
	}
	for _, s := range suites {
		t.Run(s.name, func(t *testing.T) { storagetest.Run(t, s.f) })
	}
}
