(* Fixture for the no-domain-spawn rule: library code starting a second
   domain. *)

let off_domain f = Domain.join (Domain.spawn f)
