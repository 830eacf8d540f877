(* Append-only global symbol table.  [ids] maps string -> id; [names] is
   the inverse, a growable array indexed by id.  Ids are dense from 0. *)

let ids : (string, int) Hashtbl.t = Hashtbl.create 256
let names : string array ref = ref (Array.make 256 "")
let next = ref 0

let id s =
  match Hashtbl.find_opt ids s with
  | Some i -> i
  | None ->
      let i = !next in
      incr next;
      let cap = Array.length !names in
      if i >= cap then begin
        let bigger = Array.make (2 * cap) "" in
        Array.blit !names 0 bigger 0 cap;
        names := bigger
      end;
      !names.(i) <- s;
      Hashtbl.replace ids s i;
      i

let find s = Hashtbl.find_opt ids s

let name i =
  if i < 0 || i >= !next then
    invalid_arg (Printf.sprintf "Intern.name: unknown symbol id %d" i)
  else !names.(i)

let count () = !next
