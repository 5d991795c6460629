module prete/bench

go 1.22

require prete v0.0.0

replace prete => ../
