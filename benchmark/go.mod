module jsweep/benchmark

go 1.23.0

require jsweep v0.0.0

replace jsweep => ../
