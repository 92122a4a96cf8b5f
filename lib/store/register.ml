(** The decision register of one transaction under Paxos Commit.  See
    the interface for the protocol; this module is the one place its
    rules are written down. *)

module Inttbl = Qc_util.Inttbl

type writes = (string * int * int) list
type value = bool * writes
type accepted = int * bool * writes

type opened = |
type closed = |

(* A register's two lives.  While the txid is undecided it is an open
   acceptor state, mutated in place by promises and accepts.  Once
   decided it is the decision itself: immutable, made once by the
   decider and shared by every replica that learns it, since a
   decided register answers every later message from its decision
   and from nothing else. *)
type _ state =
  | Open : {
      mutable promised : int;  (** highest promised ballot *)
      mutable accepted_bal : int;
          (** ballot of the highest accepted value; [-1] for none *)
      mutable commit : bool;
      mutable writes : writes;  (** the accepted value *)
    }
      -> opened state
  | Decided : { commit : bool; writes : writes } -> closed state

type decision = closed state

(* either life, with no box of its own: a table binding that holds a
   decision holds the shared decision block itself *)
type t = Reg : _ state -> t [@@unboxed]
type table = t Inttbl.t

let decision ~commit ~writes : decision = Decided { commit; writes }
let aborted = decision ~commit:false ~writes:[]
let commit (Decided d : decision) = d.commit
let writes (Decided d : decision) = d.writes
let table () : table = Inttbl.create 16

let fresh () =
  Reg (Open { promised = 0; accepted_bal = -1; commit = false; writes = [] })

(* the txid's register, opened on first sight *)
let find tbl id =
  match Inttbl.find tbl id with
  | r -> r
  | exception Not_found ->
      let r = fresh () in
      Inttbl.replace tbl id r;
      r

let prepare tbl id : decision option =
  match find tbl id with Reg (Decided _ as d) -> Some d | Reg (Open _) -> None

let promise tbl id ~bal =
  match find tbl id with
  | Reg (Decided _ as d) -> `Decided d
  | Reg (Open r) ->
      if bal >= r.promised then begin
        r.promised <- bal;
        `P1b
          ( true,
            if r.accepted_bal < 0 then None
            else Some (r.accepted_bal, r.commit, r.writes) )
      end
      else `P1b (false, None)

let accept tbl id ~bal ~commit ~writes =
  match find tbl id with
  | Reg (Decided _ as d) -> `Decided d
  | Reg (Open r) ->
      if bal >= r.promised then begin
        r.promised <- bal;
        r.accepted_bal <- bal;
        r.commit <- commit;
        r.writes <- writes;
        `P2b true
      end
      else `P2b false

(* rebinding an existing txid relinks nothing: the table cell's data
   becomes the decision in place *)
let decide tbl id (d : decision) =
  match Inttbl.find tbl id with
  | Reg (Decided _) -> false
  | Reg (Open _) | (exception Not_found) ->
      Inttbl.replace tbl id (Reg d);
      true

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
