let obs_frozen = Obs.counter "par.clone.frozen"
let obs_thawed = Obs.counter "par.clone.thawed"

type frozen = { fr_name : string; fr_bytes : string }

let freeze m =
  Obs.incr obs_frozen;
  { fr_name = Netlist.Model.name m; fr_bytes = Netlist.Aiger.write_binary m }

let thaw f =
  Obs.incr obs_thawed;
  Netlist.Aiger.read_binary ~name:f.fr_name f.fr_bytes

let model m = thaw (freeze m)
