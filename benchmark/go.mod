module vnetp/benchmark

go 1.22

require vnetp v0.0.0

replace vnetp => ../
