module flowpulse/bench

go 1.24

require flowpulse v0.0.0

replace flowpulse => ../
