//! Arbitrary-precision unsigned integers.
//!
//! Exactly the operations RSA needs — comparison, addition, subtraction,
//! schoolbook multiplication, Knuth Algorithm D division, modular
//! exponentiation and modular inverse — implemented over little-endian
//! `u64` limbs with `u128` intermediates. Values are kept *normalized*
//! (no trailing zero limbs; zero is the empty limb vector), which makes
//! structural equality coincide with numeric equality.

use std::cmp::Ordering;
use std::fmt;

use crate::prng::Rng64;

/// An arbitrary-precision unsigned integer.
///
/// # Example
///
/// ```
/// use ftm_crypto::bigint::BigUint;
/// let a = BigUint::from(10u64);
/// let b = BigUint::from(4u64);
/// let (q, r) = a.divrem(&b);
/// assert_eq!(q, BigUint::from(2u64));
/// assert_eq!(r, BigUint::from(2u64));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs, normalized: `limbs.last() != Some(&0)`.
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigUint { limbs: Vec::new() }
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = BigUint {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            let ord = a.cmp(b);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint::default()
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint::from(1u64)
    }

    /// Returns `true` when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` when the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Returns `true` when the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        !self.is_odd()
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian position), `false` beyond the width.
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        self.limbs
            .get(limb)
            .is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    /// Builds a value from big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut acc: u64 = 0;
        let mut shift = 0;
        for &b in bytes.iter().rev() {
            acc |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(acc);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serializes to minimal big-endian bytes (zero encodes as empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = out
            .iter()
            .position(|&b| b != 0)
            .expect("normalized value has a nonzero byte");
        out.drain(..first_nonzero);
        out
    }

    fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry: u64 = 0;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Returns `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (unsigned underflow is a logic error here).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(
            self >= other,
            "BigUint::sub underflow: {self:?} - {other:?}"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow: u64 = 0;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Returns `self * other` (schoolbook multiplication).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u128 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Returns `self << bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Returns `self >> bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            let src = &self.limbs[limb_shift..];
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = src.get(i + 1).map_or(0, |&n| n << (64 - bit_shift));
                out.push(lo | hi);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Division with remainder: returns `(self / divisor, self % divisor)`.
    ///
    /// Implements Knuth TAOCP vol. 2, Algorithm 4.3.1 D.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn divrem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = Vec::with_capacity(self.limbs.len());
            let mut rem: u128 = 0;
            for &l in self.limbs.iter().rev() {
                let cur = (rem << 64) | l as u128;
                q.push((cur / d as u128) as u64);
                rem = cur % d as u128;
            }
            q.reverse();
            let mut qn = BigUint { limbs: q };
            qn.normalize();
            return (qn, BigUint::from(rem as u64));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().expect("nonzero").leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        let mut un = u.limbs.clone();
        un.push(0); // u has m + n + 1 limbs with an extra high limb
        let vn = &v.limbs;
        let mut q = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            // Estimate q̂ from the top two limbs of the current remainder.
            let top = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = top / vn[n - 1] as u128;
            let mut rhat = top % vn[n - 1] as u128;
            while qhat >> 64 != 0
                || qhat * vn[n - 2] as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += vn[n - 1] as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }

            // Multiply-subtract: un[j..j+n+1] -= qhat * vn.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[j + i] as i128 - borrow - (p as u64) as i128;
                un[j + i] = t as u64;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = un[j + n] as i128 - borrow - carry as i128;
            un[j + n] = t as u64;

            if t < 0 {
                // q̂ was one too large: add back.
                qhat -= 1;
                let mut carry: u128 = 0;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint {
            limbs: un[..n].to_vec(),
        };
        rem.normalize();
        (quotient, rem.shr(shift))
    }

    /// Returns `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.divrem(m).1
    }

    /// Modular exponentiation: `self^exp mod m` via square-and-multiply.
    ///
    /// Odd moduli (every RSA modulus and Miller–Rabin candidate) take the
    /// Montgomery path, which allocates only once per call; even moduli
    /// fall back to multiply-then-divide.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m == &BigUint::one() {
            return BigUint::zero();
        }
        if m.is_odd() {
            return Montgomery::new(m).pow(self, exp);
        }
        let mut result = BigUint::one();
        let mut base = self.rem(m);
        for i in 0..exp.bits() {
            if exp.bit(i) {
                result = result.mul(&base).rem(m);
            }
            base = base.mul(&base).rem(m);
        }
        result
    }

    /// Greatest common divisor (binary-free Euclid via divrem).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Least common multiple. Returns zero if either operand is zero.
    pub fn lcm(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let g = self.gcd(other);
        self.divrem(&g).0.mul(other)
    }

    /// Modular inverse: the `x` with `self * x ≡ 1 (mod m)`, if it exists.
    ///
    /// Returns `None` when `gcd(self, m) != 1`. Uses the extended Euclidean
    /// algorithm with sign-tracked Bézout coefficients.
    pub fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() {
            return None;
        }
        // Invariants: old_r = old_s·self (mod m), r = s·self (mod m),
        // with s coefficients carried as (magnitude, negative?).
        let mut old_r = self.rem(m);
        let mut r = m.clone();
        let mut old_s = (BigUint::one(), false);
        let mut s = (BigUint::zero(), false);

        while !r.is_zero() {
            let (q, rem) = old_r.divrem(&r);
            old_r = std::mem::replace(&mut r, rem);
            // new_s = old_s - q * s  (signed arithmetic)
            let qs = (q.mul(&s.0), s.1);
            let new_s = signed_sub(&old_s, &qs);
            old_s = std::mem::replace(&mut s, new_s);
        }

        if old_r != BigUint::one() {
            return None;
        }
        let (mag, neg) = old_s;
        let mag = mag.rem(m);
        Some(if neg && !mag.is_zero() {
            m.sub(&mag)
        } else {
            mag
        })
    }

    /// Uniformly random value with exactly `bits` bits (top bit set).
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn random_bits<R: Rng64 + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits > 0, "cannot draw a 0-bit number");
        let limbs_needed = bits.div_ceil(64);
        let mut limbs: Vec<u64> = (0..limbs_needed).map(|_| rng.next_u64()).collect();
        let top_bits = bits - (limbs_needed - 1) * 64;
        let top = &mut limbs[limbs_needed - 1];
        if top_bits < 64 {
            *top &= (1u64 << top_bits) - 1;
        }
        *top |= 1u64 << (top_bits - 1);
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Uniformly random value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng64 + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "empty range");
        let bits = bound.bits();
        loop {
            let limbs_needed = bits.div_ceil(64);
            let mut limbs: Vec<u64> = (0..limbs_needed).map(|_| rng.next_u64()).collect();
            let top_bits = bits - (limbs_needed - 1) * 64;
            if top_bits < 64 {
                limbs[limbs_needed - 1] &= (1u64 << top_bits) - 1;
            }
            let mut candidate = BigUint { limbs };
            candidate.normalize();
            if &candidate < bound {
                return candidate;
            }
        }
    }
}

/// Montgomery arithmetic modulo an odd `m` of `k` limbs, with
/// `R = 2^(64k)`: residues are kept as `aR mod m` in fixed `k`-limb
/// buffers, and a product is reduced by the word-serial CIOS method
/// (Koç–Acar–Kaliski), so no step of an exponentiation allocates.
struct Montgomery<'a> {
    m: &'a BigUint,
    /// `-m⁻¹ mod 2⁶⁴`.
    m_neg_inv: u64,
}

impl<'a> Montgomery<'a> {
    fn new(m: &'a BigUint) -> Self {
        debug_assert!(m.is_odd());
        let m0 = m.limbs[0];
        // Newton–Hensel lifting: each step doubles the correct low bits
        // of m0⁻¹ (1 → 64 in six steps; odd m0 is its own inverse mod 2).
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        Montgomery {
            m,
            m_neg_inv: inv.wrapping_neg(),
        }
    }

    /// `x·R mod m` as exactly `k` limbs.
    fn to_form(&self, x: &BigUint) -> Vec<u64> {
        let k = self.m.limbs.len();
        let mut limbs = x.shl(64 * k).rem(self.m).limbs;
        limbs.resize(k, 0);
        limbs
    }

    /// `out = a·b·R⁻¹ mod m` for `a, b < m`; `t` is `k + 2` limbs of
    /// scratch.
    fn mul(&self, a: &[u64], b: &[u64], t: &mut [u64], out: &mut [u64]) {
        let m = &self.m.limbs;
        let k = m.len();
        t.fill(0);
        for &ai in a {
            // t += ai·b
            let mut carry: u64 = 0;
            for (tj, &bj) in t.iter_mut().zip(b) {
                let s = *tj as u128 + ai as u128 * bj as u128 + carry as u128;
                *tj = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = t[k] as u128 + carry as u128;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;
            // t = (t + u·m) / 2⁶⁴ with u chosen so the low limb cancels.
            let u = t[0].wrapping_mul(self.m_neg_inv);
            let s = t[0] as u128 + u as u128 * m[0] as u128;
            let mut carry = (s >> 64) as u64;
            for j in 1..k {
                let s = t[j] as u128 + u as u128 * m[j] as u128 + carry as u128;
                t[j - 1] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = t[k] as u128 + carry as u128;
            t[k - 1] = s as u64;
            t[k] = t[k + 1] + (s >> 64) as u64;
        }
        // t < 2m: one conditional subtraction lands in [0, m).
        if t[k] != 0 || t[..k].iter().rev().ge(m.iter().rev()) {
            let mut borrow = false;
            for ((o, &tj), &mj) in out.iter_mut().zip(&t[..k]).zip(m) {
                let (d1, b1) = tj.overflowing_sub(mj);
                let (d2, b2) = d1.overflowing_sub(borrow as u64);
                *o = d2;
                borrow = b1 | b2;
            }
        } else {
            out.copy_from_slice(&t[..k]);
        }
    }

    /// `base^exp mod m`, left-to-right binary.
    fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let k = self.m.limbs.len();
        let mut one = vec![0u64; k];
        one[0] = 1;
        let b = self.to_form(base);
        let mut acc = self.to_form(&BigUint::one());
        let mut tmp = vec![0u64; k];
        let mut t = vec![0u64; k + 2];
        for i in (0..exp.bits()).rev() {
            self.mul(&acc, &acc, &mut t, &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
            if exp.bit(i) {
                self.mul(&acc, &b, &mut t, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        // Leave Montgomery form: multiply by plain 1.
        self.mul(&acc, &one, &mut t, &mut tmp);
        let mut n = BigUint { limbs: tmp };
        n.normalize();
        n
    }
}

type Signed = (BigUint, bool);

/// Signed subtraction on (magnitude, negative?) pairs.
fn signed_sub(a: &Signed, b: &Signed) -> Signed {
    match (a.1, b.1) {
        // a - b with both non-negative.
        (false, false) => {
            if a.0 >= b.0 {
                (a.0.sub(&b.0), false)
            } else {
                (b.0.sub(&a.0), true)
            }
        }
        // (-a) - (-b) = b - a.
        (true, true) => {
            if b.0 >= a.0 {
                (b.0.sub(&a.0), false)
            } else {
                (a.0.sub(&b.0), true)
            }
        }
        // a - (-b) = a + b.
        (false, true) => (a.0.add(&b.0), false),
        // (-a) - b = -(a + b).
        (true, false) => (a.0.add(&b.0), true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn zero_is_normalized_and_empty() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::from(0u64), BigUint::zero());
    }

    #[test]
    fn add_with_carry_chain() {
        let a = BigUint::from(u64::MAX);
        let b = BigUint::one();
        assert_eq!(a.add(&b), big(1u128 << 64));
    }

    #[test]
    fn sub_with_borrow_chain() {
        let a = big(1u128 << 64);
        assert_eq!(a.sub(&BigUint::one()), BigUint::from(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        BigUint::one().sub(&big(2));
    }

    #[test]
    fn mul_u128_cross_check() {
        let a = big(0xdeadbeef_12345678);
        let b = big(0xcafebabe_87654321);
        let expected = 0xdeadbeef_12345678u128 * 0xcafebabe_87654321u128;
        assert_eq!(a.mul(&b), BigUint::from(expected));
    }

    #[test]
    fn divrem_simple() {
        let (q, r) = big(1000).divrem(&big(7));
        assert_eq!(q, big(142));
        assert_eq!(r, big(6));
    }

    #[test]
    fn divrem_multi_limb() {
        // (2^192 + 12345) / (2^64 + 3)
        let a = BigUint::one().shl(192).add(&big(12345));
        let d = BigUint::one().shl(64).add(&big(3));
        let (q, r) = a.divrem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r < d);
    }

    #[test]
    fn divrem_knuth_addback_case() {
        // Crafted to exercise the rare "add back" branch: divisor with
        // second limb small, dividend forcing qhat overestimation.
        let u = BigUint {
            limbs: vec![0, 0, 0x8000_0000_0000_0000, 0x7fff_ffff_ffff_ffff],
        };
        let v = BigUint {
            limbs: vec![1, 0, 0x8000_0000_0000_0000],
        };
        let (q, r) = u.divrem(&v);
        assert_eq!(q.mul(&v).add(&r), u);
        assert!(r < v);
    }

    #[test]
    fn shl_shr_roundtrip() {
        let a = big(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
        for s in [0usize, 1, 63, 64, 65, 127, 130] {
            assert_eq!(a.shl(s).shr(s), a, "shift {s}");
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let a = big(0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10);
        assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
        assert_eq!(BigUint::from_bytes_be(&[]), BigUint::zero());
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 5]), big(5));
    }

    #[test]
    fn modpow_small_cases() {
        assert_eq!(big(4).modpow(&big(13), &big(497)), big(445));
        assert_eq!(big(2).modpow(&big(10), &big(1000)), big(24));
        assert_eq!(big(7).modpow(&BigUint::zero(), &big(13)), BigUint::one());
        assert_eq!(big(7).modpow(&big(5), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn modpow_fermat() {
        // a^(p-1) ≡ 1 mod p for prime p not dividing a.
        let p = big(1_000_000_007);
        for a in [2u128, 3, 999_999_999] {
            assert_eq!(big(a).modpow(&p.sub(&BigUint::one()), &p), BigUint::one());
        }
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(big(48).gcd(&big(18)), big(6));
        assert_eq!(big(48).lcm(&big(18)), big(144));
        assert_eq!(big(17).gcd(&BigUint::zero()), big(17));
        assert_eq!(BigUint::zero().lcm(&big(5)), BigUint::zero());
    }

    #[test]
    fn modinv_known() {
        assert_eq!(big(3).modinv(&big(11)), Some(big(4)));
        assert_eq!(big(10).modinv(&big(17)), Some(big(12)));
        assert_eq!(big(6).modinv(&big(9)), None); // gcd = 3
        assert_eq!(
            big(65537)
                .modinv(&big(1_000_000_007))
                .map(|x| { x.mul(&big(65537)).rem(&big(1_000_000_007)) }),
            Some(BigUint::one())
        );
    }

    #[test]
    fn random_bits_has_exact_width() {
        let mut rng = crate::rng_from_seed(1);
        for bits in [1usize, 7, 63, 64, 65, 128, 257] {
            let n = BigUint::random_bits(&mut rng, bits);
            assert_eq!(n.bits(), bits);
        }
    }

    #[test]
    fn random_below_is_in_range() {
        let mut rng = crate::rng_from_seed(2);
        let bound = big(1000);
        for _ in 0..200 {
            assert!(BigUint::random_below(&mut rng, &bound) < bound);
        }
    }

    /// Deterministic seeded fuzzing replacing the former proptest suite:
    /// the in-tree PRNG generates the cases, so every failure is
    /// replayable from the printed iteration number alone.
    mod fuzz {
        use super::*;
        use crate::prng::{Rng64, SplitMix64};

        fn u128_of(rng: &mut SplitMix64) -> u128 {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }

        #[test]
        fn add_sub_roundtrip() {
            let mut rng = SplitMix64::from_seed(0xB161);
            for i in 0..500 {
                let (a, b) = (u128_of(&mut rng), u128_of(&mut rng));
                let (x, y) = (BigUint::from(a), BigUint::from(b));
                assert_eq!(x.add(&y).sub(&y), x, "case {i}: a={a} b={b}");
            }
        }

        #[test]
        fn mul_matches_u128() {
            let mut rng = SplitMix64::from_seed(0xB162);
            for i in 0..500 {
                let (a, b) = (rng.next_u64(), rng.next_u64());
                let expected = a as u128 * b as u128;
                assert_eq!(
                    BigUint::from(a).mul(&BigUint::from(b)),
                    BigUint::from(expected),
                    "case {i}: a={a} b={b}"
                );
            }
        }

        #[test]
        fn divrem_invariant() {
            let mut rng = SplitMix64::from_seed(0xB163);
            for i in 0..500 {
                let a = u128_of(&mut rng);
                let b = u128_of(&mut rng).max(1);
                let (x, y) = (BigUint::from(a), BigUint::from(b));
                let (q, r) = x.divrem(&y);
                assert_eq!(q.mul(&y).add(&r), x, "case {i}: a={a} b={b}");
                assert!(r < y, "case {i}: a={a} b={b}");
            }
        }

        #[test]
        fn divrem_multi_limb_invariant() {
            let mut rng = SplitMix64::from_seed(0xB164);
            for i in 0..300 {
                let na = 1 + (rng.next_u64() % 5) as usize;
                let nb = 1 + (rng.next_u64() % 3) as usize;
                let mut x = BigUint {
                    limbs: (0..na).map(|_| rng.next_u64()).collect(),
                };
                x.normalize();
                let mut y = BigUint {
                    limbs: (0..nb).map(|_| rng.next_u64()).collect(),
                };
                y.normalize();
                if y.is_zero() {
                    continue;
                }
                let (q, r) = x.divrem(&y);
                assert_eq!(q.mul(&y).add(&r), x, "case {i}");
                assert!(r < y, "case {i}");
            }
        }

        #[test]
        fn bytes_roundtrip() {
            let mut rng = SplitMix64::from_seed(0xB165);
            for i in 0..300 {
                let len = (rng.next_u64() % 40) as usize;
                let mut bytes = vec![0u8; len];
                rng.fill_bytes(&mut bytes);
                let n = BigUint::from_bytes_be(&bytes);
                assert_eq!(BigUint::from_bytes_be(&n.to_bytes_be()), n, "case {i}");
            }
        }

        #[test]
        fn modinv_is_inverse() {
            let mut rng = SplitMix64::from_seed(0xB166);
            for i in 0..300 {
                let a = u128_of(&mut rng).max(1);
                let m = u128_of(&mut rng).max(2);
                let (x, modulus) = (BigUint::from(a), BigUint::from(m));
                if let Some(inv) = x.modinv(&modulus) {
                    assert_eq!(
                        x.mul(&inv).rem(&modulus),
                        BigUint::one().rem(&modulus),
                        "case {i}: a={a} m={m}"
                    );
                    assert!(inv < modulus, "case {i}");
                } else {
                    assert_ne!(x.gcd(&modulus), BigUint::one(), "case {i}: a={a} m={m}");
                }
            }
        }

        #[test]
        fn modpow_matches_naive() {
            let mut rng = SplitMix64::from_seed(0xB167);
            for i in 0..300 {
                let a = (rng.next_u64() % 1000) as u128;
                let e = (rng.next_u64() % 24) as u32;
                let m = (1 + rng.next_u64() % 9999) as u128;
                let expected = {
                    let mut acc: u128 = 1 % m;
                    for _ in 0..e {
                        acc = acc * (a % m) % m;
                    }
                    acc
                };
                let got = BigUint::from(a).modpow(&BigUint::from(e as u64), &BigUint::from(m));
                assert_eq!(got, BigUint::from(expected), "case {i}: a={a} e={e} m={m}");
            }
        }

        /// Reference exponentiation: the multiply-then-divide loop the
        /// Montgomery path replaced for odd moduli.
        fn naive_modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
            let mut result = BigUint::one().rem(m);
            let mut base = base.rem(m);
            for i in 0..exp.bits() {
                if exp.bit(i) {
                    result = result.mul(&base).rem(m);
                }
                base = base.mul(&base).rem(m);
            }
            result
        }

        fn random_limbs(rng: &mut SplitMix64, n: usize) -> BigUint {
            let mut x = BigUint {
                limbs: (0..n).map(|_| rng.next_u64()).collect(),
            };
            x.normalize();
            x
        }

        #[test]
        fn montgomery_modpow_matches_naive_on_odd_moduli() {
            let mut rng = SplitMix64::from_seed(0xB168);
            for i in 0..400 {
                let k = 1 + (rng.next_u64() % 8) as usize;
                let mut m = random_limbs(&mut rng, k);
                m.limbs.resize(k, 0);
                m.limbs[0] |= 1;
                // Every eighth modulus is all-ones limbs (2^64k − 1).
                if i % 8 == 0 {
                    m.limbs.iter_mut().for_each(|l| *l = u64::MAX);
                }
                m.normalize();
                // Bases above the modulus, up to twice its width.
                let base_limbs = 1 + (rng.next_u64() % (2 * k as u64)) as usize;
                let base = random_limbs(&mut rng, base_limbs);
                let exp_limbs = 1 + (rng.next_u64() % 3) as usize;
                let exp = match i % 5 {
                    0 => BigUint::zero(),
                    1 => BigUint::one(),
                    _ => random_limbs(&mut rng, exp_limbs),
                };
                assert_eq!(
                    base.modpow(&exp, &m),
                    naive_modpow(&base, &exp, &m),
                    "case {i}: base={base:?} exp={exp:?} m={m:?}"
                );
            }
        }

        #[test]
        fn montgomery_modpow_edge_cases() {
            let ones = |k: usize| BigUint {
                limbs: vec![u64::MAX; k],
            };
            for k in 1..=8 {
                let m = ones(k);
                let cases = [
                    (BigUint::zero(), ones(k)),
                    (m.clone(), BigUint::from(3u64)),
                    (m.sub(&BigUint::one()), BigUint::from(2u64)),
                    (m.add(&BigUint::from(5u64)), ones(k)),
                    (ones(2 * k), ones(k)),
                ];
                for (base, exp) in &cases {
                    assert_eq!(
                        base.modpow(exp, &m),
                        naive_modpow(base, exp, &m),
                        "k={k} base={base:?} exp={exp:?}"
                    );
                    assert_eq!(base.modpow(&BigUint::zero(), &m), BigUint::one());
                    assert_eq!(base.modpow(exp, &BigUint::one()), BigUint::zero());
                }
            }
        }
    }
}
