(* Compile-must-fail canary: a protocol handler that hides frames
   behind a wildcard arm, under the [@warning "@4@8"] contract that
   [Store.Replica.serve] and the VP and ADT replica dispatches carry.
   ocamlc must reject it with warning 4 (fragile-match); see ./dune. *)

type msg = Ping of int | Pong of int | Gossip of string

let[@warning "@4@8"] handle m =
  match m with
  | Ping n -> Some (Pong n)
  | _ -> None
