module perfsight/bench

go 1.22

require perfsight v0.0.0

replace perfsight => ../
