package storage

import (
	"testing"

	"epcm/internal/sim"
)

// BenchmarkStore times the store's block operations on holes and on blocks
// that hold data; each op includes its clock charge. zero-over-data writes
// zeros over a block that holds data, refilling the blocks in untimed
// batches.
func BenchmarkStore(b *testing.B) {
	const bs = 4096
	data := make([]byte, bs)
	for i := range data {
		data[i] = byte(i) | 1
	}
	zeros := make([]byte, bs)
	newStore := func() *Store {
		var clock sim.Clock
		return NewStore(&clock, LocalDisk(), bs)
	}
	b.Run("fetch/hole", func(b *testing.B) {
		s := newStore()
		s.Preload("f", 1, nil)
		buf := make([]byte, bs)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Fetch("f", 0, buf)
		}
	})
	b.Run("fetch/data", func(b *testing.B) {
		s := newStore()
		_ = s.Store("f", 0, data)
		buf := make([]byte, bs)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Fetch("f", 0, buf)
		}
	})
	b.Run("store/zero", func(b *testing.B) {
		s := newStore()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Store("f", 0, zeros)
		}
	})
	b.Run("store/data", func(b *testing.B) {
		s := newStore()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Store("f", 0, data)
		}
	})
	b.Run("store/zero-over-data", func(b *testing.B) {
		const batch = 1024
		s := newStore()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%batch == 0 {
				b.StopTimer()
				for blk := int64(0); blk < batch; blk++ {
					_ = s.Store("f", blk, data)
				}
				b.StartTimer()
			}
			_ = s.Store("f", int64(i%batch), zeros)
		}
	})
	b.Run("preload/16384", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			newStore().Preload("f", 16384, nil)
		}
	})
}
