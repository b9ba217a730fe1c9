(* Quantifier-free linear-integer-arithmetic formulas.  Atoms are kept in
   the normal forms "t <= 0" and "t = 0"; all comparison operators are
   expressed through them at construction time, so downstream passes (NNF,
   Tseitin, the theory solver) only ever see these two shapes. *)

type atom =
  | Le of Linexpr.t  (* t <= 0 *)
  | Eq of Linexpr.t  (* t  = 0 *)

type t =
  | True
  | False
  | Atom of atom
  | Not of t
  | And of t * t
  | Or of t * t

(* ---------------- smart constructors ---------------- *)

let atom_le t =
  if Linexpr.is_const t then if t.Linexpr.const <= 0 then True else False
  else begin
    (* normalize by the gcd of the coefficients: g*x + c <= 0 is equivalent
       over the integers to x + ceil(c/g) ... we use floor division on the
       tightened constant: g*e + c <= 0  <=>  e <= floor(-c/g). *)
    let g = Linexpr.coeff_gcd t in
    if g <= 1 then Atom (Le t)
    else
      let c = t.Linexpr.const in
      let coeffs = List.map (fun (v, k) -> (v, k / g)) t.Linexpr.coeffs in
      (* e + c/g <= 0 with e integer: e <= -c/g, i.e. e + ceil(c/g) <= 0 *)
      let cdiv =
        (* ceiling of c/g *)
        if c >= 0 then (c + g - 1) / g else -((-c) / g)
      in
      Atom (Le { Linexpr.coeffs; const = cdiv })
  end

let atom_eq t =
  if Linexpr.is_const t then if t.Linexpr.const = 0 then True else False
  else
    let g = Linexpr.coeff_gcd t in
    if g <= 1 then Atom (Eq t)
    else if t.Linexpr.const mod g <> 0 then False
    else
      Atom
        (Eq
           { Linexpr.coeffs = List.map (fun (v, k) -> (v, k / g)) t.Linexpr.coeffs;
             const = t.Linexpr.const / g })

let le a b = atom_le (Linexpr.sub a b)
let lt a b = atom_le (Linexpr.sub (Linexpr.add a (Linexpr.const 1)) b)
let ge a b = le b a
let gt a b = lt b a
let eq a b = atom_eq (Linexpr.sub a b)

let not_ = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let ne a b = not_ (eq a b)

let and_ a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, f | f, True -> f
  | _ -> And (a, b)

let or_ a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, f | f, False -> f
  | _ -> Or (a, b)

let conj = List.fold_left and_ True

let rec size = function
  | True | False | Atom _ -> 1
  | Not f -> 1 + size f
  | And (a, b) | Or (a, b) -> 1 + size a + size b

let rec atoms acc = function
  | True | False -> acc
  | Atom a -> a :: acc
  | Not f -> atoms acc f
  | And (a, b) | Or (a, b) -> atoms (atoms acc a) b

let rec vars acc = function
  | True | False -> acc
  | Atom (Le t) | Atom (Eq t) -> Linexpr.vars t @ acc
  | Not f -> vars acc f
  | And (a, b) | Or (a, b) -> vars (vars acc a) b

(* ---------------- NNF ---------------- *)

(* Push negations to the atoms.  The negation of "t <= 0" is "-t + 1 <= 0";
   the negation of "t = 0" has no atom form and becomes the disjunction
   "t <= -1 or -t <= -1". *)
let rec nnf (f : t) : t =
  match f with
  | True | False | Atom _ -> f
  | And (a, b) -> And (nnf a, nnf b)
  | Or (a, b) -> Or (nnf a, nnf b)
  | Not g -> nnf_neg g

and nnf_neg = function
  | True -> False
  | False -> True
  | Atom (Le t) ->
      (* not (t <= 0) <=> -t < 0 <=> -t + 1 <= 0 *)
      atom_le (Linexpr.add (Linexpr.neg t) (Linexpr.const 1))
  | Atom (Eq t) ->
      (* not (t = 0) <=> t <= -1 or -t <= -1 *)
      or_
        (atom_le (Linexpr.add t (Linexpr.const 1)))
        (atom_le (Linexpr.add (Linexpr.neg t) (Linexpr.const 1)))
  | Not g -> nnf g
  | And (a, b) -> or_ (nnf_neg a) (nnf_neg b)
  | Or (a, b) -> and_ (nnf_neg a) (nnf_neg b)

(* ---------------- hashing ---------------- *)

(* A hash that reads the whole formula.  [Hashtbl.hash] stops after ten
   meaningful words, so long path constraints that differ only further in
   collide in it. *)
let hash (f : t) : int =
  let mix h x =
    let h = (h lxor x) * 0x100000001b3 in
    h lxor (h lsr 31)
  in
  let term h (t : Linexpr.t) =
    List.fold_left (fun h (v, c) -> mix (mix h v) c) (mix h t.Linexpr.const)
      t.Linexpr.coeffs
  in
  let rec go h = function
    | True -> mix h 1
    | False -> mix h 2
    | Atom (Le t) -> term (mix h 3) t
    | Atom (Eq t) -> term (mix h 4) t
    | Not f -> go (mix h 5) f
    | And (a, b) -> go (go (mix h 6) a) b
    | Or (a, b) -> go (go (mix h 7) a) b
  in
  go 0 f

(* ---------------- evaluation and printing ---------------- *)

let eval_atom assignment = function
  | Le t -> Linexpr.eval assignment t <= 0
  | Eq t -> Linexpr.eval assignment t = 0

let rec eval assignment = function
  | True -> true
  | False -> false
  | Atom a -> eval_atom assignment a
  | Not f -> not (eval assignment f)
  | And (a, b) -> eval assignment a && eval assignment b
  | Or (a, b) -> eval assignment a || eval assignment b

let pp_atom ppf = function
  | Le t -> Fmt.pf ppf "%a <= 0" Linexpr.pp t
  | Eq t -> Fmt.pf ppf "%a = 0" Linexpr.pp t

let rec pp ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Atom a -> pp_atom ppf a
  | Not f -> Fmt.pf ppf "!(%a)" pp f
  | And (a, b) -> Fmt.pf ppf "(%a & %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a | %a)" pp a pp b

let to_string f = Fmt.str "%a" pp f
