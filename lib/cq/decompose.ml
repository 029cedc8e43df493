module Value = Aggshap_relational.Value
module Database = Aggshap_relational.Database

let is_ground q = Cq.vars q = []

(* Variable sharing between two atoms, without materializing var lists:
   the engine asks for components at every DP node, and almost every
   query it builds there has one or two atoms. *)
let atoms_share_var (a : Cq.atom) (b : Cq.atom) =
  Array.exists
    (function
      | Cq.Var x ->
        Array.exists
          (function Cq.Var y -> String.equal x y | Cq.Const _ -> false)
          b.Cq.terms
      | Cq.Const _ -> false)
    a.Cq.terms

let single_atom_component q (a : Cq.atom) =
  let avars = Cq.atom_vars a in
  { q with Cq.head = List.filter (fun x -> List.mem x avars) q.Cq.head; body = [ a ] }

let connected_components q =
  match q.Cq.body with
  | [] -> []
  | [ _ ] -> [ q ]
  | [ a1; a2 ] ->
    if atoms_share_var a1 a2 then [ q ]
    else [ single_atom_component q a1; single_atom_component q a2 ]
  | body ->
  let atoms = Array.of_list body in
  let n = Array.length atoms in
  let atom_vars = Array.map Cq.atom_vars atoms in
  let comp = Array.init n (fun i -> i) in
  let rec find i = if comp.(i) = i then i else find comp.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then comp.(ri) <- rj
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let vi = atom_vars.(i) and vj = atom_vars.(j) in
      if List.exists (fun x -> List.mem x vj) vi then union i j
    done
  done;
  let roots = List.sort_uniq Stdlib.compare (List.init n (fun i -> find i)) in
  List.map
    (fun r ->
      let body =
        List.filteri (fun i _ -> find i = r) (Array.to_list atoms)
      in
      let body_vars = List.concat_map Cq.atom_vars body in
      { q with
        Cq.head = List.filter (fun x -> List.mem x body_vars) q.Cq.head;
        body })
    roots

let root_variables q =
  match q.Cq.body with
  | [] -> []
  | first :: rest ->
    List.filter
      (fun x -> List.for_all (fun a -> List.mem x (Cq.atom_vars a)) rest)
      (Cq.atom_vars first)

let choose_root q =
  let roots = root_variables q in
  match List.find_opt (Cq.is_free q) roots with
  | Some x -> Some x
  | None -> (match roots with [] -> None | x :: _ -> Some x)

let matches (a : Cq.atom) fixing (f : Aggshap_relational.Fact.t) =
  if not (String.equal a.rel f.rel) || Array.length a.terms <> Array.length f.args then false
  else begin
    let n = Array.length a.terms in
    let rec go i sigma =
      if i >= n then true
      else
        match a.terms.(i) with
        | Cq.Const v -> Value.equal v f.args.(i) && go (i + 1) sigma
        | Cq.Var x -> begin
          match List.assoc_opt x sigma with
          | Some v -> Value.equal v f.args.(i) && go (i + 1) sigma
          | None -> go (i + 1) ((x, f.args.(i)) :: sigma)
        end
    in
    go 0 fixing
  end

(* Relevance of a fact: matched by some body atom. [matches] rejects a
   wrong-relation fact on its first comparison, so each fact is
   effectively tested only against the atoms of its own relation
   without materializing that sublist. *)
let rec matched_by_some atoms f =
  match atoms with [] -> false | a :: rest -> matches a [] f || matched_by_some rest f

(* The engine only pads by the number of {e endogenous} irrelevant
   facts; counting them first keeps the common case — nothing
   irrelevant at the top of a solve — a single allocation-free pass
   that returns the database {e as is}, built indexes and cached digest
   alive. When something is irrelevant the relevant half is rebuilt by
   inserting the survivors into an empty database: the membership games
   of the incremental session keep only a thin slice of the database,
   and deriving that slice by deleting the majority would pay a
   log-sized path rebuild plus index maintenance per deletion. *)
let relevant_part q db =
  let irr = ref 0 and irr_endo = ref 0 in
  Database.iter
    (fun f p ->
      if not (matched_by_some q.Cq.body f) then begin
        incr irr;
        match p with Database.Endogenous -> incr irr_endo | Database.Exogenous -> ()
      end)
    db;
  if !irr = 0 then (db, 0)
  else
    ( Database.fold
        (fun f p acc ->
          if matched_by_some q.Cq.body f then Database.add ~provenance:p f acc else acc)
        db Database.empty,
      !irr_endo )

(* The two-database split, for callers that need the irrelevant facts
   themselves (none on the solve path — they pad by the count above). *)
let relevant q db =
  let rel, _ = relevant_part q db in
  let irr =
    if rel == db then Database.empty
    else
      Database.fold
        (fun f p acc ->
          if matched_by_some q.Cq.body f then acc else Database.add ~provenance:p f acc)
        db Database.empty
  in
  (rel, irr)

module ValueSet = Set.Make (Value)

(* The value the root variable takes in a fact matching an atom, if any. *)
let root_value_of (a : Cq.atom) x (f : Aggshap_relational.Fact.t) =
  if matches a [] f then begin
    let v = ref None in
    Array.iteri
      (fun i t -> match t with Cq.Var y when String.equal y x && !v = None -> v := Some f.args.(i) | _ -> ())
      a.terms;
    !v
  end
  else None

let root_values q x db =
  let per_atom (a : Cq.atom) =
    List.fold_left
      (fun acc f -> match root_value_of a x f with Some v -> ValueSet.add v acc | None -> acc)
      ValueSet.empty
      (Database.relation db a.rel)
  in
  match q.Cq.body with
  | [] -> []
  | first :: rest ->
    let init = per_atom first in
    let inter = List.fold_left (fun acc a -> ValueSet.inter acc (per_atom a)) init rest in
    ValueSet.elements inter

(* Injective serialization of a database block: facts arrive in
   [Fact.compare] order, every value is tagged and length-prefixed, so
   two blocks collide iff they are equal as provenance-tagged fact sets.
   Together with [Cq.to_string] (canonical — it backs [Cq.equal]) this
   keys the DP-table caches of the batch engine. *)
let fingerprint_uncached db =
  let buf = Buffer.create 128 in
  Database.iter
    (fun (f : Aggshap_relational.Fact.t) p ->
      Buffer.add_string buf f.rel;
      Buffer.add_char buf '(';
      Array.iter
        (fun v ->
          (match v with
           | Value.Int n ->
             Buffer.add_char buf 'i';
             Buffer.add_string buf (string_of_int n)
           | Value.Str s ->
             Buffer.add_char buf 's';
             Buffer.add_string buf (string_of_int (String.length s));
             Buffer.add_char buf ':';
             Buffer.add_string buf s);
          Buffer.add_char buf ',')
        f.args;
      Buffer.add_char buf ')';
      Buffer.add_char buf
        (match p with Database.Endogenous -> '+' | Database.Exogenous -> '@'))
    db;
  Buffer.contents buf

let fingerprint db = Database.cached_digest db fingerprint_uncached

let block_key q db = Cq.to_string q ^ "\x00" ^ fingerprint db

(* The scan partition: recompute the root values by scanning every
   atom's relation, then filter the whole database once per value.
   O(values × |db|) — kept as the reference arm of the equivalence
   suite. *)
let partition_scan q x db =
  let values = root_values q x db in
  let block a =
    Database.filter
      (fun f _ ->
        List.exists (fun at -> matches at [ (x, a) ] f) q.Cq.body)
      db
  in
  let blocks = List.map (fun a -> (a, block a)) values in
  let in_some_block f =
    List.exists (fun (_, b) -> Database.mem f b) blocks
  in
  let dropped = Database.filter (fun f _ -> not (in_some_block f)) db in
  (blocks, dropped)

module FactSet = Set.Make (Aggshap_relational.Fact)

(* The first position of an atom holding the root variable — the index
   position the partition probes. *)
let var_position (a : Cq.atom) x =
  let n = Array.length a.terms in
  let rec go i =
    if i >= n then None
    else
      match a.terms.(i) with
      | Cq.Var y when String.equal y x -> Some i
      | _ -> go (i + 1)
  in
  go 0

(* The partition: one probe per atom of the (rel, root
   position) secondary index groups the matching facts by root value —
   a fact matching the atom with [x ↦ v] carries [v] at every
   x-position, so the index group for [v] is a superset of the block's
   slice of that relation and [matches] filters it exactly. The root
   values are the intersection of the per-atom group keys (a value must
   be realized by a matching fact in {e every} atom, as in
   [root_values]); blocks are per-value unions across atoms.
   O(Σ segments + Σ blocks·log) in one pass, not O(values × |db|). *)
let partition q x db =
  match q.Cq.body with
  | [] -> ([], db)
  | body ->
    let groups =
      List.map
        (fun (a : Cq.atom) ->
          match var_position a x with
          | None -> Database.ValueMap.empty
          | Some pos ->
            Database.ValueMap.filter_map
              (fun v g ->
                let g' =
                  Database.FactMap.filter (fun f _ -> matches a [ (x, v) ] f) g
                in
                if Database.FactMap.is_empty g' then None else Some g')
              (Database.indexed db ~rel:a.rel ~pos))
        body
    in
    let values =
      match groups with
      | [] -> ValueSet.empty
      | first :: rest ->
        List.fold_left
          (fun acc g -> ValueSet.filter (fun v -> Database.ValueMap.mem v g) acc)
          (Database.ValueMap.fold
             (fun v _ acc -> ValueSet.add v acc)
             first ValueSet.empty)
          rest
    in
    let placed = ref FactSet.empty in
    let blocks =
      List.map
        (fun v ->
          let block =
            List.fold_left
              (fun acc g ->
                match Database.ValueMap.find_opt v g with
                | None -> acc
                | Some fm ->
                  Database.FactMap.fold
                    (fun f p acc ->
                      placed := FactSet.add f !placed;
                      Database.add ~provenance:p f acc)
                    fm acc)
              Database.empty groups
          in
          (v, block))
        (ValueSet.elements values)
    in
    let dropped = Database.filter (fun f _ -> not (FactSet.mem f !placed)) db in
    (blocks, dropped)
