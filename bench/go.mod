module epcm/bench

go 1.22

require epcm v0.0.0

replace epcm => ../
