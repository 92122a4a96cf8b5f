(** The decision register of one transaction under Paxos Commit.  See
    the interface for the protocol; this module is the one place its
    rules are written down. *)

type value = bool * (string * int * int) list
type accepted = int * bool * (string * int * int) list

(* The accepted and the decided value share one set of fields: a
   decided register answers every ballot from its decision, so the
   accepted value is never consulted again.  Keeping them in place
   spares an option and a tuple per accept and per decision, in a
   record that lives as long as the replica remembers the txid. *)
type t = {
  mutable promised : int;  (** highest promised ballot *)
  mutable accepted_bal : int;
      (** ballot of the highest accepted value; [-1] for none *)
  mutable decided : bool;
  mutable commit : bool;  (** the accepted, or else the decided, value *)
  mutable writes : (string * int * int) list;
}

let create () =
  {
    promised = 0;
    accepted_bal = -1;
    decided = false;
    commit = false;
    writes = [];
  }

let decided t = if t.decided then Some (t.commit, t.writes) else None

let promise t ~bal =
  if t.decided then `Decided (t.commit, t.writes)
  else if bal >= t.promised then begin
    t.promised <- bal;
    `P1b
      ( true,
        if t.accepted_bal < 0 then None
        else Some (t.accepted_bal, t.commit, t.writes) )
  end
  else `P1b (false, None)

let accept t ~bal ~commit ~writes =
  if t.decided then `Decided (t.commit, t.writes)
  else if bal >= t.promised then begin
    t.promised <- bal;
    t.accepted_bal <- bal;
    t.commit <- commit;
    t.writes <- writes;
    `P2b true
  end
  else `P2b false

let decide t ~commit ~writes =
  if t.decided then false
  else begin
    t.decided <- true;
    t.commit <- commit;
    t.writes <- writes;
    true
  end

let ballot ~attempt ~acceptors ~index =
  (attempt * (acceptors + 1)) + index + 1

let proposal = function Some (_, c, ws) -> (c, ws) | None -> (false, [])

let higher cur incoming =
  match (cur, incoming) with
  | _, None -> cur
  | Some ((b : int), _, _), Some (a, _, _) when b >= a -> cur
  | _ -> incoming

(* no local closure over [name]: a prepare computes its index *)
let rec index_from i name = function
  | [] -> -1
  | a :: rest -> if String.equal a name then i else index_from (i + 1) name rest

let index acceptors name = index_from 0 name acceptors

let send_all acceptors ~except send msg =
  List.iter
    (fun a -> if not (String.equal a except) then send ~dst:a msg)
    acceptors

(* one byte per acceptor: the set is the union of the participant
   shards' groups, which can be wider than an int mask *)
type tally = { seen : Bytes.t; need : int; mutable heard : int }

let tally n = { seen = Bytes.make n '\000'; need = (n / 2) + 1; heard = 0 }

let hear t i =
  if
    i >= 0
    && i < Bytes.length t.seen
    && Char.equal (Bytes.get t.seen i) '\000'
  then begin
    Bytes.set t.seen i '\001';
    t.heard <- t.heard + 1;
    true
  end
  else false

let complete t = t.heard >= t.need
